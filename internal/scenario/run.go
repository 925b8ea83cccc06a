package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"samft/internal/experiments"
	"samft/internal/trace"
)

// Outcome is one scenario's verdict after a campaign run.
type Outcome struct {
	Path string
	Name string
	// Problems lists everything wrong with the run (empty = green): what
	// experiments.Judge found, the scenario's own failed assertions, and —
	// so a red run either keeps its timeline or says why not — a failed
	// dump of a failing run.
	Problems []string
	// Warnings lists harness-side defects that do not fail the run (a
	// requested dump failing on a passing run).
	Warnings []string
	// TraceDir is where the run was dumped ("" if it was not): scenario.json
	// (what `samrun run` replays), trace.json (Perfetto loadable) and
	// recovery.txt.
	TraceDir string
	// Result is the faulted run.
	Result experiments.Result
	// RecoveryModeledSec is the faulted run's recovery time, read off its
	// trace (experiments.RecoveryWindowSec); max_recovery_modeled_sec
	// bounds it.
	RecoveryModeledSec float64
}

// Failed reports whether the run has any problem.
func (o Outcome) Failed() bool { return len(o.Problems) > 0 }

// Build validates and compiles scenarios constructed in Go (the chaos
// generator's, ftbench's tables) under the rules Load holds a file to, so
// the scenario.json dumped beside a built scenario's trace replays.
func Build(scenarios ...*Scenario) ([]Compiled, error) {
	cs := make([]Compiled, len(scenarios))
	for i, s := range scenarios {
		if errs := validate(s, &posIndex{file: s.Name}); len(errs) > 0 {
			return nil, errs
		}
		cs[i] = Compile(s, "")
	}
	return cs, nil
}

// RunSet executes a batch of compiled scenarios — every faulted run, and
// each distinct fault-free baseline twin once — through
// experiments.RunAll, so a campaign gets the same bounded parallelism and
// deterministic result ordering as the figure sweeps, then evaluates each
// scenario's assertions.
//
// Every faulted run records its virtual-time timeline; a failing scenario
// is dumped (see dump; $SAMFT_TRACE_DIR is what CI uploads), and with an
// explicit traceDir passing scenarios dump too. The returned error reports
// harness failures, not assertion misses: a run that errored out (hung
// until the run timeout), with its scenario, kill schedule and dump
// directory named.
func RunSet(cs []Compiled, traceDir string) ([]Outcome, error) {
	// The faulted runs come first (scenario i is specs[i]), then the twins.
	n := len(cs)
	specs := make([]experiments.Spec, n, 2*n)
	names := make([]string, n, 2*n) // what an errored run is reported as
	twin := make([]int, n)          // scenario -> its twin in specs; -1 when the answer assertion is off
	twins := make(map[string]int)   // rendered baseline spec -> its index in specs
	for i := range cs {
		specs[i] = cs[i].Spec
		specs[i].Tracer = trace.New(0)
		names[i] = "scenario-" + cs[i].Scenario.Name
		twin[i] = -1
		if !cs[i].CheckAnswer {
			continue
		}
		key := twinKey(cs[i])
		at, ok := twins[key]
		if !ok {
			at = len(specs)
			twins[key] = at
			specs = append(specs, cs[i].Baseline)
			names = append(names, names[i]+"-baseline")
		}
		twin[i] = at
	}
	results, err := experiments.RunAll(specs)
	var re *experiments.RunError
	if errors.As(err, &re) {
		// A run that errored out (in practice: hung until the run timeout)
		// is as diagnosable as one that finished red.
		where := "a fault-free twin records no trace"
		if re.Index < n {
			dir, derr := dump(cs[re.Index].Scenario, re.Spec.Tracer, traceDir)
			where = "trace: " + dir
			if derr != nil {
				where = fmt.Sprintf("dump to %s failed: %v", dir, derr)
			}
		}
		return nil, fmt.Errorf("%s: %w (%s)", names[re.Index], err, where)
	}
	if err != nil {
		return nil, err
	}

	outs := make([]Outcome, len(cs))
	for i, c := range cs {
		var baseline *experiments.Result
		if twin[i] >= 0 {
			baseline = &results[twin[i]]
		}
		outs[i] = assess(c, results[i], baseline, results[i].Spec.Tracer, traceDir)
	}
	return outs, nil
}

// twinKey identifies a scenario's fault-free twin. A baseline carries no
// kills, slowdowns or tracer, so printing it is a faithful key: scenarios
// that differ only in their faults share one twin.
func twinKey(c Compiled) string { return fmt.Sprintf("%+v", c.Baseline) }

// dump writes everything needed to study and replay one run into
// <root>/scenario-<name>: the scenario itself (scenario.json, which `samrun
// run` executes) next to its timeline (trace.json, recovery.txt). The root
// is traceDir when set, else $SAMFT_TRACE_DIR, else chaos-traces. It
// returns the directory.
func dump(s *Scenario, tracer *trace.Tracer, traceDir string) (string, error) {
	if traceDir == "" {
		traceDir = os.Getenv("SAMFT_TRACE_DIR")
	}
	if traceDir == "" {
		traceDir = "chaos-traces"
	}
	dir := filepath.Join(traceDir, "scenario-"+s.Name)
	if _, err := trace.Dump(tracer, dir); err != nil {
		return dir, err
	}
	data, err := encode(s)
	if err != nil {
		return dir, err
	}
	return dir, os.WriteFile(filepath.Join(dir, "scenario.json"), data, 0o644)
}

// encode renders a scenario as the file `samrun run` loads.
func encode(s *Scenario) ([]byte, error) {
	data, err := json.MarshalIndent(s, "", "  ")
	return append(data, '\n'), err
}

// assess evaluates one scenario over its finished runs: the scenario-level
// assertions (recovery bound, kills applied) here, everything else by
// experiments.Judge. baseline is nil when the answer assertion is off;
// tracer recorded the faulted run res. A red run is dumped; with an
// explicit traceDir a green one is too.
func assess(c Compiled, res experiments.Result, baseline *experiments.Result, tracer *trace.Tracer, traceDir string) Outcome {
	o := Outcome{
		Path:               c.Path,
		Name:               c.Scenario.Name,
		Result:             res,
		RecoveryModeledSec: experiments.RecoveryWindowSec(tracer),
	}
	var missed []string
	if c.MaxRecoverySec > 0 && o.RecoveryModeledSec > c.MaxRecoverySec {
		missed = append(missed, fmt.Sprintf(
			"recovery took %.4f modeled s, bound is %.4f", o.RecoveryModeledSec, c.MaxRecoverySec))
	}
	if res.KillsApplied < c.MinKills {
		missed = append(missed, fmt.Sprintf(
			"only %d/%d kills hit a live process (a scheduled kill was a no-op)", res.KillsApplied, c.MinKills))
	}
	o.Problems = experiments.Judge(res, baseline, missed)
	if !o.Failed() && traceDir == "" {
		return o
	}
	dir, err := dump(c.Scenario, tracer, traceDir)
	switch {
	case err == nil:
		o.TraceDir = dir
	case o.Failed():
		// Never lose a red run's timeline silently; on a green run the
		// simulation itself was fine, so the dump failure only warns.
		o.Problems = append(o.Problems, fmt.Sprintf("trace dump to %s failed: %v", dir, err))
	default:
		o.Warnings = append(o.Warnings, fmt.Sprintf("trace dump to %s failed: %v", dir, err))
	}
	return o
}

// Print renders one outcome in the campaign report format.
func (o Outcome) Print(w io.Writer, verbose bool) {
	status := "ok"
	if o.Failed() {
		status = "FAIL"
	}
	name := o.Name
	if o.Path != "" {
		name = o.Path
	}
	fmt.Fprintf(w, "%-4s %-44s answer=%v modeled=%.4fs kills=%d recovery=%.4fs\n",
		status, name, o.Result.Answer, o.Result.ModeledSec, o.Result.KillsApplied, o.RecoveryModeledSec)
	if verbose {
		fmt.Fprintf(w, "       stats: %s\n", o.Result.Report)
	}
	for _, p := range o.Problems {
		fmt.Fprintf(w, "       %s\n", p)
	}
	for _, m := range o.Warnings {
		fmt.Fprintf(w, "       warning: %s\n", m)
	}
	if o.TraceDir != "" && (verbose || o.Failed()) {
		fmt.Fprintf(w, "       trace: %s\n", o.TraceDir)
	}
}
