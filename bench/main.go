// Command bench is the repository's benchmark: the paper's metrics
// (fault-tolerance slowdown, recovery window) and the simulator's host
// cost on four workloads, with per-layer numbers from a separate traced
// pass. See README.md beside this file for every metric and workload.
//
//	go run ./bench                         all workloads, both passes
//	go run ./bench -workload barnes8       one workload, both passes
//	go run ./bench -workload barnes8 -seed 7 -seconds 30 -trace 0
//	go run ./bench -compare a.json b.json  apply the bounds to two results
//
// The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"} for the last pass run.
// The exit status is non-zero when any correctness check failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// Result is the file a run writes to -out and -compare reads.
type Result struct {
	Go         string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       uint64  `json:"seed"`
	Seconds    int     `json:"seconds"`
	TotalS     float64 `json:"total_s"`
	Rows       []Row   `json:"rows"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload (barnes8, water8, gps8, fabric64); default all")
	seed := fs.Uint64("seed", 1996, "seed of the workload inputs")
	seconds := fs.Int("seconds", 0, "measure for this many seconds per workload instead of the fixed repetition counts")
	pass := fs.String("trace", "both", `which pass to run: "0" timed (end-to-end metrics), "1" traced (per-layer metrics), "both"`)
	out := fs.String("out", ".bench_out", "directory for result.json, spans.json and layers.txt")
	compare := fs.Bool("compare", false, "compare two result files: bench -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	timed, traced := *pass == "0" || *pass == "both", *pass == "1" || *pass == "both"
	if !timed && !traced {
		fmt.Fprintf(stderr, "bench: -trace %q: want 0, 1 or both\n", *pass)
		return 2
	}
	run := workloads
	if *workload != "" {
		w, ok := findWorkload(*workload)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *workload)
			return 2
		}
		run = []Workload{w}
	}

	began := time.Now()
	var log *spanLog // spans are recorded in the traced pass only
	if traced {
		log = newSpanLog()
	}
	res := Result{Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: *seed, Seconds: *seconds}
	budget := time.Duration(*seconds) * time.Second
	fmt.Fprintf(stdout, "bench: %s GOMAXPROCS=%d seed=%d\n", res.Go, res.GOMAXPROCS, res.Seed)
	for _, w := range run {
		if timed {
			var row Row
			if w.Name == fabricName {
				row = timedFabric(w, budget, fullSizes)
			} else {
				row = timedApp(w, *seed, w.Reps, budget, fullSizes)
			}
			printRow(stdout, row, endToEnd)
			res.Rows = append(res.Rows, row)
		}
		if traced {
			var row Row
			if w.Name == fabricName {
				row = tracedFabric(w, log, fullSizes)
			} else {
				row = tracedApp(w, *seed, log, fullSizes)
			}
			printRow(stdout, row, perLayer)
			res.Rows = append(res.Rows, row)
		}
	}
	res.TotalS = time.Since(began).Seconds()
	fmt.Fprintf(stdout, "bench: total %.1f s\n", res.TotalS)
	if err := writeOut(*out, res, log); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	last := res.Rows[len(res.Rows)-1]
	if err := json.NewEncoder(stdout).Encode(contractLine(last)); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return exitCode(res.Rows)
}

// exitCode is 1 when any run of any row failed a correctness check.
func exitCode(rows []Row) int {
	for _, r := range rows {
		if r.Failed > 0 || r.Attempted == 0 {
			return 1
		}
	}
	return 0
}

// printRow prints one row's metrics in table order, each by name with
// its unit, sample count and upper percentile.
func printRow(w io.Writer, row Row, defs []MetricDef) {
	frac := 1.0
	if row.Attempted > 0 {
		frac = float64(row.Failed) / float64(row.Attempted)
	}
	fmt.Fprintf(w, "\n== %s (%s pass, %.1f s): attempted %d, failed %d, failed_frac %g\n",
		row.Workload, row.Pass, row.HostS, row.Attempted, row.Failed, frac)
	for _, canary := range []string{pushCrash, coverageMiss} {
		if n := row.Skipped[canary]; n > 0 {
			fmt.Fprintf(w, "   skipped %d runs that hit the known defect behind %s\n", n, canary)
		}
	}
	for _, p := range row.Problems {
		fmt.Fprintf(w, "   FAILED %s\n", p)
	}
	for _, d := range defs {
		m, ok := row.Metrics[d.Name]
		if !ok {
			continue // this workload does not define the metric
		}
		fmt.Fprintf(w, "%-44s %14.6g %-6s n=%-4d", d.Name, m.Median, m.Unit, m.N)
		if m.PHiPct > 0 {
			fmt.Fprintf(w, " p%.3g=%.6g", m.PHiPct, m.PHi)
		}
		fmt.Fprintln(w)
	}
}

// contractLine renders a row as the driver's result object: the median
// of every metric, with all its digits.
func contractLine(row Row) map[string]interface{} {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(row.Metrics))
	for name, m := range row.Metrics {
		metrics[name] = value{m.Median, m.Unit}
	}
	return map[string]interface{}{
		"correct":   row.Failed == 0 && row.Attempted > 0,
		"attempted": row.Attempted,
		"failed":    row.Failed,
		"metrics":   metrics,
	}
}

// writeOut writes the result file and, for traced rows, the benchmark's
// own spans and the per-layer table.
func writeOut(dir string, res Result, log *spanLog) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(dir, "result.json"), res); err != nil {
		return err
	}
	if log == nil {
		return nil
	}
	layers, err := os.Create(filepath.Join(dir, "layers.txt"))
	if err != nil {
		return err
	}
	defer layers.Close() // closed again, checked, on the success path
	for _, row := range res.Rows {
		if row.Pass != "traced" {
			continue
		}
		printRow(layers, row, perLayer)
	}
	if err := layers.Close(); err != nil {
		return err
	}
	return writeJSON(filepath.Join(dir, "spans.json"), struct {
		Spans  []Span      `json:"spans"`
		Totals []SpanTotal `json:"totals"`
	}{log.spans, selfTimes(log.spans)})
}

func writeJSON(path string, v interface{}) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
