package experiments

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"samft/internal/trace"
)

// Verdict is the judge's ruling on one faulted run.
type Verdict struct {
	// Problems lists everything wrong with the run: an answer mismatch vs.
	// the fault-free twin, invariant violations, the caller's failed
	// assertions. A failing run whose trace dump also failed records that
	// here, so a red run either keeps its timeline or says why not.
	Problems []string
	// Warnings lists harness-side defects that do not fail the run (a
	// requested trace dump failing on a passing run).
	Warnings []string
	// TraceDir is where the run's trace was dumped ("" if it was not), with
	// trace.json (Perfetto loadable) and recovery.txt inside.
	TraceDir string
}

// Failed reports whether the run has any problem.
func (v Verdict) Failed() bool { return len(v.Problems) > 0 }

// DefaultTraceDir receives failing runs' auto-dumped traces when no
// explicit trace directory is configured and SAMFT_TRACE_DIR is unset.
const DefaultTraceDir = "chaos-traces"

// TraceRoot resolves where auto-dumped traces land: the explicit
// directory when set, else SAMFT_TRACE_DIR, else DefaultTraceDir.
func TraceRoot(explicit string) string {
	if explicit != "" {
		return explicit
	}
	if d := os.Getenv("SAMFT_TRACE_DIR"); d != "" {
		return d
	}
	return DefaultTraceDir
}

// Judge rules on one faulted run, for the chaos sweep and the scenario
// runner alike: the answer must match the fault-free twin's bit for bit
// (baseline nil skips the comparison), the end-state invariants must
// hold, and the caller's own failed assertions count as problems. A red
// run dumps its trace under TraceRoot(traceDir)/name — the SAMFT_TRACE_DIR
// wiring CI uploads — and with an explicit traceDir a green run dumps too.
func Judge(res Result, baseline *Result, assertions []string, tracer *trace.Tracer, traceDir, name string) Verdict {
	var v Verdict
	if baseline != nil && math.Float64bits(res.Answer) != math.Float64bits(baseline.Answer) {
		v.Problems = append(v.Problems, fmt.Sprintf(
			"answer mismatch: got %v, fault-free run produced %v", res.Answer, baseline.Answer))
	}
	for _, viol := range res.InvariantViolations {
		v.Problems = append(v.Problems, "invariant: "+viol)
	}
	v.Problems = append(v.Problems, assertions...)
	if !v.Failed() && traceDir == "" {
		return v
	}
	dir := filepath.Join(TraceRoot(traceDir), name)
	if _, err := trace.Dump(tracer, dir); err != nil {
		// Never lose a red run's timeline silently; on a green run the
		// simulation itself was fine, so the dump failure only warns.
		msg := fmt.Sprintf("trace dump to %s failed: %v", dir, err)
		if v.Failed() {
			v.Problems = append(v.Problems, msg)
		} else {
			v.Warnings = append(v.Warnings, msg)
		}
	} else {
		v.TraceDir = dir
	}
	return v
}

// TraceRunError dumps the timeline of the run a RunAll error is about under
// TraceRoot(traceDir)/names[its index] — names is indexed like RunAll's
// specs — and returns the error with the run and that directory named, so a
// run that errored out (in practice: hung until the run timeout) is as
// diagnosable as one that finished red. Other errors pass through.
func TraceRunError(err error, traceDir string, names []string) error {
	var re *RunError
	if !errors.As(err, &re) {
		return err
	}
	name := names[re.Index]
	dir := filepath.Join(TraceRoot(traceDir), name)
	switch paths, derr := trace.Dump(re.Spec.Tracer, dir); {
	case derr != nil:
		return fmt.Errorf("%s: %w (trace dump to %s failed: %v)", name, err, dir, derr)
	case paths == nil:
		return fmt.Errorf("%s: %w (the run recorded no trace)", name, err)
	}
	return fmt.Errorf("%s: %w (trace: %s)", name, err, dir)
}

// RecoveryWindowSec is a traced run's recovery time: the longest complete
// recovery window (first event on a replacement's track through
// sam.rec-done) in modeled seconds, 0 when no replacement finished
// recovering. It is the quantity the repository benchmark reports as
// recovery_modeled_ms and scenario files bound with
// max_recovery_modeled_sec.
func RecoveryWindowSec(t *trace.Tracer) float64 {
	longest := 0.0
	for _, inc := range trace.AnalyzeRecovery(t).Incarnations {
		if inc.Complete && inc.WindowUS() > longest {
			longest = inc.WindowUS()
		}
	}
	return longest / 1e6
}
