package experiments

// The redundancy-decay scenario: repeated failure rounds with no
// application progress (and hence no fresh application-driven
// checkpoints) in between. Under the paper's fixed placement, round one
// destroys checkpoint copies that nothing re-creates until the next
// checkpoint, so a second round of failures can land on the only
// remaining copies. The ckptstore coverage ledger closes that hole with
// proactive repair; this scenario is its acceptance test: kill Degree
// ranks, wait for recovery and repair to quiesce with full coverage,
// kill the complementary ranks, and still finish with the fault-free
// answer bit-for-bit.

import (
	"fmt"
	"time"

	"samft/internal/ckptstore"
	"samft/internal/cluster"
	"samft/internal/ft"
	"samft/internal/sam"
)

// The decay run's shape (GPS, small scale: it is about the fault-tolerance
// layer, not the workload). Every rank parks at decayGateStep while the
// kill rounds run — parked applications make no progress, so no
// application-driven checkpoint separates the rounds, exactly the window
// where redundancy would otherwise decay. Round one takes the middle ranks,
// round two the complement (coordinator included): every rank dies once,
// decayDegree at a time.
const (
	decayN        = 4
	decayDegree   = 2
	decayGateStep = 3
	// decayRoundTimeout bounds each round's recovery-and-repair quiescence
	// wait; decayTimeout the final run to completion.
	decayRoundTimeout = 30 * time.Second
	decayTimeout      = 60 * time.Second
)

var decayRounds = [][]int{{1, 2}, {0, 3}}

// DecayResult is one decay run's outcome.
type DecayResult struct {
	// RepairObjects/RepairBytes total the proactive re-replication traffic
	// across ranks — the scenario requires it to be nonzero, since nothing
	// else restores coverage between the rounds.
	RepairObjects int64
	RepairBytes   int64
	// Problems lists everything wrong: per-round quiescence or coverage
	// failures, then the judge's verdict on the finished run.
	Problems []string
}

// gated parks its application at decayGateStep until the gate opens.
type gated struct {
	sam.App
	gate <-chan struct{}
}

func (g *gated) Step(p *sam.Proc, step int64) bool {
	if step == decayGateStep {
		<-g.gate
	}
	return g.App.Step(p, step)
}

// RunDecay executes the repeated-failure decay scenario under the given
// checkpoint placement.
func RunDecay(placement ckptstore.Kind) (DecayResult, error) {
	var out DecayResult
	spec := Spec{App: GPS, N: decayN, Policy: ft.PolicySAM, Degree: decayDegree, Scale: Small, Placement: placement}
	base, err := Run(spec)
	if err != nil {
		return out, fmt.Errorf("decay baseline: %w", err)
	}

	// Every incarnation of every rank parks at the gate step; the gate
	// releases only after the last kill round's repair has quiesced.
	// Killed incarnations parked here unblock on release and unwind
	// through their dead process's normal kill path.
	gate := make(chan struct{})
	ans := &answerBox{}
	factory := appFactory(spec, ans)
	cl := cluster.New(cluster.Config{
		N:          spec.N,
		Policy:     spec.Policy,
		Degree:     spec.Degree,
		Placement:  spec.Placement,
		AppFactory: func(rank int) sam.App { return &gated{App: factory(rank), gate: gate} },
	})
	cl.Start()

	wantRecoveries := 0
	for round, kills := range decayRounds {
		for _, r := range kills {
			if cl.Kill(r) {
				wantRecoveries++
			}
		}
		for _, p := range awaitDecayQuiesce(cl, wantRecoveries) {
			out.Problems = append(out.Problems, fmt.Sprintf("round %d: %s", round+1, p))
		}
	}
	close(gate)

	spec.CheckInvariants = true
	violations, err := settle(cl, spec, decayTimeout)
	if err != nil {
		return out, err
	}
	out.Problems = append(out.Problems,
		Judge(Result{Answer: ans.get(), InvariantViolations: violations}, &base, nil)...)
	total := cl.Report().Total
	out.RepairObjects, out.RepairBytes = total.RepairObjects, total.RepairBytes
	if out.RepairObjects == 0 {
		out.Problems = append(out.Problems,
			"no proactive repair traffic: coverage between rounds was never restored")
	}
	return out, nil
}

// awaitDecayQuiesce polls the cluster until the expected number of
// recoveries completed, no rank knows of a dead unreplaced peer, and the
// live invariant snapshots (including checkpoint coverage and repair
// verdicts) are clean — i.e. the round's rebalancing has quiesced. It
// returns the last set of violations on timeout.
func awaitDecayQuiesce(cl *cluster.Cluster, wantRecoveries int) []string {
	deadline := time.NewTimer(decayRoundTimeout)
	defer deadline.Stop()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	last := []string{"recovery never completed"}
	for {
		recovered := 0
		for r := 0; r < decayN; r++ {
			recovered += int(cl.ProcStats(r).Recoveries.Load())
		}
		if recovered >= wantRecoveries {
			snaps := cl.LiveInvariantSnapshots()
			if len(snaps) == decayN {
				dead := 0
				for _, s := range snaps {
					dead += s.DeadRanks
				}
				if dead == 0 {
					last = CheckInvariants(snaps, decayN, decayDegree)
					if len(last) == 0 {
						return nil
					}
				} else {
					last = []string{fmt.Sprintf("%d dead unreplaced rank references remain", dead)}
				}
			} else {
				last = []string{fmt.Sprintf("only %d/%d live snapshots", len(snaps), decayN)}
			}
		}
		select {
		case <-deadline.C:
			out := make([]string, 0, len(last))
			for _, p := range last {
				out = append(out, "quiesce timeout: "+p)
			}
			return out
		case <-tick.C:
		}
	}
}
