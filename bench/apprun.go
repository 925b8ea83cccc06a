package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"samft/internal/experiments"
	"samft/internal/ft"
	"samft/internal/trace"
)

// traceCapacity is the per-track ring size of a traced run: large enough
// that the busiest barnes8 track never wraps (a dropped event fails the
// run).
const traceCapacity = 1 << 18

// Two product defects found while sizing the workloads make a run end
// badly at random, about once in 200 runs each (README.md, "Known defects
// found while sizing"). A gated benchmark cannot carry a random failure,
// and the defects are not the benchmark's to fix, so a run that ends in
// exactly one of these ways is counted under the defect's canary metric,
// left out of the medians and of attempted/failed, and the repetition
// goes on with its other variants. Anything else still fails the run.
const (
	// pushCrash: with policy off, GPS eagerly frees a value once its
	// consumers finish, racing the creator's own Push loop.
	pushCrash      = "sam.noft_push_crash_frac"
	pushCrashError = "not the owner of a created value"
	// coverageMiss: a traced degree-2 kill run of Water ends with the last
	// step's queue accumulator one checkpoint copy short.
	coverageMiss          = "sam.endstate_coverage_miss_frac"
	coverageMissViolation = "checkpoint coverage 1 < 2"
)

// knownDefect names the canary of the known defect a finished run hit,
// or "" when it ended any other way.
func knownDefect(spec experiments.Spec, res experiments.Result, err error) string {
	if err != nil {
		if spec.Policy == ft.PolicyOff && strings.Contains(err.Error(), pushCrashError) {
			return pushCrash
		}
		return ""
	}
	if len(res.InvariantViolations) == 0 {
		return ""
	}
	for _, v := range res.InvariantViolations {
		if !strings.Contains(v, coverageMissViolation) {
			return ""
		}
	}
	return coverageMiss
}

// runOut is one cluster run as the benchmark saw it.
type runOut struct {
	res    experiments.Result
	hostS  float64
	allocB uint64
	tracer *trace.Tracer
	rec    recoverySummary // kill runs with a tracer only
}

// runner runs specs under the watchdog and keeps the pass's tallies.
type runner struct {
	workload  string
	spans     *spanLog
	attempted int
	failed    int
	// offRuns and killRuns are the canaries' denominators; skipped counts
	// the runs that hit a known defect, by canary.
	offRuns  int
	killRuns int
	skipped  map[string]int
	// dropped totals the events traced runs lost to ring wrap; each such
	// run also fails.
	dropped  uint64
	problems []string
	// hung is set when the watchdog fired: the workload must end, the
	// stuck cluster still holds its goroutines.
	hung bool
}

func (r *runner) fail(format string, args ...interface{}) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, r.workload+": "+fmt.Sprintf(format, args...))
	}
}

// run executes one spec and applies the per-run checks. It returns nil
// when the run failed, hung, or hit a known defect.
func (r *runner) run(variant string, spec experiments.Spec, traced bool, parent, rep int) *runOut {
	out := &runOut{}
	if traced {
		out.tracer = trace.New(traceCapacity)
		spec.Tracer = out.tracer
	}
	type ret struct {
		res experiments.Result
		err error
	}
	done := make(chan ret, 1) // the run's goroutine never blocks on a reader that gave up
	span := r.spans.start("experiments.Run:"+variant, parent, rep)
	var before, after runtime.MemStats
	runtime.GC() // every run starts from a collected heap, whatever ran before it
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	go func() {
		res, err := experiments.Run(spec)
		done <- ret{res, err}
	}()
	timer := time.NewTimer(watchdog)
	defer timer.Stop()
	var got ret
	select {
	case got = <-done:
	case <-timer.C:
		r.attempted++
		r.hung = true
		r.fail("%s rep %d: no result after %v (watchdog)", variant, rep, watchdog)
		return nil
	}
	out.hostS = time.Since(t0).Seconds()
	runtime.ReadMemStats(&after)
	r.spans.end(span)
	out.allocB = after.TotalAlloc - before.TotalAlloc
	out.res = got.res

	if spec.Policy == ft.PolicyOff {
		r.offRuns++
	}
	if len(spec.Kills) > 0 {
		r.killRuns++
	}
	if canary := knownDefect(spec, got.res, got.err); canary != "" {
		if r.skipped == nil {
			r.skipped = make(map[string]int)
		}
		r.skipped[canary]++
		return nil
	}
	r.attempted++
	if got.err != nil {
		r.fail("%s rep %d: %v", variant, rep, got.err)
		return nil
	}
	if len(spec.Kills) > 0 && !r.checkKill(variant, spec, out, parent, rep) {
		return nil
	}
	if out.tracer != nil {
		if _, dropped := eventTotals(out.tracer.Snapshot()); dropped > 0 {
			r.dropped += dropped
			r.fail("%s rep %d: tracer dropped %d events", variant, rep, dropped)
			return nil
		}
	}
	return out
}

// checkKill applies the faulted run's checks: clean end-state
// invariants, every scheduled kill applied, and (traced) at least one
// complete, fully attributed recovery.
func (r *runner) checkKill(variant string, spec experiments.Spec, out *runOut, parent, rep int) bool {
	res := out.res
	if len(res.InvariantViolations) > 0 {
		r.fail("%s rep %d: invariants: %s", variant, rep, strings.Join(res.InvariantViolations, "; "))
		return false
	}
	if res.KillsApplied < len(spec.Kills) {
		r.fail("%s rep %d: %d of %d kills applied", variant, rep, res.KillsApplied, len(spec.Kills))
		return false
	}
	if out.tracer == nil {
		return true
	}
	span := r.spans.start("trace.AnalyzeRecovery", parent, rep)
	out.rec = summarizeRecovery(trace.AnalyzeRecovery(out.tracer))
	r.spans.end(span)
	if out.rec.Complete == 0 {
		r.fail("%s rep %d: no complete recovery in the trace", variant, rep)
		return false
	}
	if !out.rec.Attributed {
		r.fail("%s rep %d: recovery phases do not add up to the window", variant, rep)
		return false
	}
	return true
}

// sameAnswer checks that every run of one repetition computed the same
// answer, bit for bit. On a mismatch nobody can say which run is wrong,
// so all of them fail.
func (r *runner) sameAnswer(rep int, outs ...*runOut) bool {
	var ref *runOut
	for _, o := range outs {
		if o == nil {
			continue
		}
		if ref == nil {
			ref = o
			continue
		}
		if math.Float64bits(o.res.Answer) != math.Float64bits(ref.res.Answer) {
			n := 0
			for _, x := range outs {
				if x != nil {
					n++
				}
			}
			r.failed += n - 1 // fail() adds the last one
			r.fail("rep %d: answers differ between variants (%v vs %v)", rep, ref.res.Answer, o.res.Answer)
			return false
		}
	}
	return true
}
