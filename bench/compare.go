package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// unresolvedZ scales the two medians' standard errors to the width of
// the difference a comparison can resolve: 1.96 * sqrt(2), a 95%
// interval on the difference of two equally noisy medians.
const unresolvedZ = 2.77

// verdict compares one metric's reference and candidate statistics:
// "worse" when the candidate's median is worse than the reference's by
// more than the bound, "unresolved" when it is not but the run-to-run
// spread is wider than the bound (the comparison could not have seen a
// regression of that size), "ok" otherwise. change is the signed relative
// change of the median, positive = worse.
func verdict(def MetricDef, ref, cand Stat) (string, float64) {
	change := (cand.Median - ref.Median) / ref.Median
	if def.Better == "higher" {
		change = -change
	}
	spread := ref.relSpread()
	if s := cand.relSpread(); s > spread {
		spread = s
	}
	switch {
	case change > def.Bound:
		return "worse", change
	case unresolvedZ*spread > def.Bound:
		return "unresolved", change
	}
	return "ok", change
}

func readResult(path string) (Result, error) {
	var res Result
	data, err := os.ReadFile(path)
	if err != nil {
		return res, err
	}
	if err := json.Unmarshal(data, &res); err != nil {
		return res, fmt.Errorf("%s: %w", path, err)
	}
	return res, nil
}

// compareFiles prints one row per (workload, end-to-end metric) present
// in both files' timed passes and returns 1 when any is worse, or when a
// candidate row has failed runs.
func compareFiles(refPath, candPath string, stdout, stderr io.Writer) int {
	ref, err := readResult(refPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	cand, err := readResult(candPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	candRows := make(map[string]Row)
	for _, r := range cand.Rows {
		if r.Pass == "timed" {
			candRows[r.Workload] = r
		}
	}
	code := 0
	fmt.Fprintf(stdout, "%-10s %-24s %14s %14s %8s %6s  %s\n",
		"workload", "metric", "reference", "candidate", "change", "bound", "verdict")
	for _, r := range ref.Rows {
		c, ok := candRows[r.Workload]
		if r.Pass != "timed" || !ok {
			continue
		}
		if c.Failed > r.Failed {
			fmt.Fprintf(stdout, "%-10s %-24s %14d %14d %8s %6s  worse\n", r.Workload, "failed", r.Failed, c.Failed, "", "0")
			code = 1
		}
		for _, def := range endToEnd {
			a, okA := r.Metrics[def.Name]
			b, okB := c.Metrics[def.Name]
			if !okA || !okB {
				continue
			}
			v, change := verdict(def, a.Stat, b.Stat)
			if v == "worse" {
				code = 1
			}
			fmt.Fprintf(stdout, "%-10s %-24s %14.6g %14.6g %+7.2f%% %5.0f%%  %s\n",
				r.Workload, def.Name, a.Median, b.Median, 100*change, 100*def.Bound, v)
		}
	}
	return code
}
