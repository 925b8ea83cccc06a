package experiments

import (
	"fmt"
	"math"

	"samft/internal/trace"
)

// Judge rules on one faulted run — the one pass/fail rule, whoever wrote
// the run's description (a scenario file, the chaos generator, ftbench's
// tables, the decay run): the answer must match the fault-free twin's bit
// for bit (baseline nil skips the comparison), the end-state invariants
// must hold, and the caller's own failed assertions count as problems. It
// returns everything wrong with the run; none means green.
func Judge(res Result, baseline *Result, assertions []string) []string {
	var problems []string
	if baseline != nil && math.Float64bits(res.Answer) != math.Float64bits(baseline.Answer) {
		problems = append(problems, fmt.Sprintf(
			"answer mismatch: got %v, fault-free run produced %v", res.Answer, baseline.Answer))
	}
	for _, viol := range res.InvariantViolations {
		problems = append(problems, "invariant: "+viol)
	}
	return append(problems, assertions...)
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
