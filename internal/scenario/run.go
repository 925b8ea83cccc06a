package scenario

import (
	"fmt"
	"io"
	"math"

	"samft/internal/experiments"
	"samft/internal/trace"
)

// Outcome is one scenario's verdict after a campaign run.
type Outcome struct {
	Path string
	Name string
	// Verdict holds every failed assertion (Problems; empty = green),
	// harness warnings, and where the faulted run's trace was dumped.
	experiments.Verdict
	// Result is the faulted run; BaselineAnswer the fault-free twin's
	// answer (NaN when the answer assertion is off).
	Result         experiments.Result
	BaselineAnswer float64
	// RecoveryModeledSec is the faulted run's recovery time, read off its
	// trace (experiments.RecoveryWindowSec); max_recovery_modeled_sec
	// bounds it.
	RecoveryModeledSec float64
}

// RunOne executes a single compiled scenario.
func RunOne(c Compiled, traceDir string) (Outcome, error) {
	outs, err := RunSet([]Compiled{c}, traceDir)
	if err != nil {
		return Outcome{}, err
	}
	return outs[0], nil
}

// RunSet executes a batch of compiled scenarios — every fault-free
// baseline twin and every faulted run — through experiments.RunAll, so a
// campaign gets the same bounded parallelism and deterministic result
// ordering as the figure sweeps, then evaluates each scenario's
// assertions.
//
// Every faulted run records its virtual-time timeline; a failing
// scenario dumps it under TraceRoot(traceDir)/scenario-<name> (the
// SAMFT_TRACE_DIR wiring CI uploads), and with an explicit traceDir
// passing scenarios dump too. The returned error reports harness
// failures, not assertion misses: a run that errored out (hung until the
// run timeout), with its scenario, kill schedule and dumped trace named.
func RunSet(cs []Compiled, traceDir string) ([]Outcome, error) {
	specs := make([]experiments.Spec, 0, 2*len(cs))
	names := make([]string, 0, 2*len(cs)) // trace directory per spec
	baseIdx := make([]int, len(cs))       // index into specs, -1 when no baseline runs
	runIdx := make([]int, len(cs))
	for i := range cs {
		baseIdx[i] = -1
		if cs[i].CheckAnswer {
			baseIdx[i] = len(specs)
			specs = append(specs, cs[i].Baseline)
			names = append(names, "scenario-"+cs[i].Scenario.Name+"-baseline")
		}
		run := cs[i].Spec
		run.Tracer = trace.New(0)
		runIdx[i] = len(specs)
		specs = append(specs, run)
		names = append(names, "scenario-"+cs[i].Scenario.Name)
	}
	results, err := experiments.RunAll(specs)
	if err != nil {
		return nil, experiments.TraceRunError(err, traceDir, names)
	}

	outs := make([]Outcome, len(cs))
	for i, c := range cs {
		var baseline *experiments.Result
		if baseIdx[i] >= 0 {
			baseline = &results[baseIdx[i]]
		}
		res := results[runIdx[i]]
		outs[i] = assess(c, res, baseline, res.Spec.Tracer, traceDir)
	}
	return outs, nil
}

// assess evaluates one scenario over its finished runs: the scenario-level
// assertions (recovery bound, kills applied) here, everything else by the
// judge shared with the chaos sweep. baseline is nil when the answer
// assertion is off; tracer recorded the faulted run res.
func assess(c Compiled, res experiments.Result, baseline *experiments.Result, tracer *trace.Tracer, traceDir string) Outcome {
	o := Outcome{
		Path:               c.Path,
		Name:               c.Scenario.Name,
		Result:             res,
		BaselineAnswer:     math.NaN(),
		RecoveryModeledSec: experiments.RecoveryWindowSec(tracer),
	}
	if baseline != nil {
		o.BaselineAnswer = baseline.Answer
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
	o.Verdict = experiments.Judge(res, baseline, missed, tracer, traceDir, "scenario-"+o.Name)
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
