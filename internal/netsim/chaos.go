package netsim

import (
	"sort"
	"sync"

	"samft/internal/xrand"
)

// This file implements the chaos fault-injection layer: a seeded FaultPlan
// attached to a Network that perturbs per-message latency with seeded jitter
// and (behind flags) drops or duplicates the exit-notification messages a
// Kill fans out, to exercise the failure-detection races in higher layers.
// Which endpoint dies when is the harness's business (Network.Kill).
//
// The plan is seeded so a schedule can be replayed, but the simulation is
// driven by real goroutines, so *interleavings* of failures with application
// messages are not bit-reproducible across runs. That is by design: the
// fault-tolerance protocol under test must produce the same answer no
// matter where in the exchange a failure lands, so the chaos suite checks
// answers against a fault-free run rather than message traces.

// FaultPlan is a seeded chaos schedule for one Network. The zero plan is a
// fault-free network.
type FaultPlan struct {
	// ChaosSeed drives jitter and notification drop/duplicate decisions.
	ChaosSeed uint64
	// JitterUS adds a uniform [0, JitterUS) extra delay to every message's
	// modeled arrival time, perturbing delivery order between endpoints.
	JitterUS float64
	// NotifyDrop drops a random subset of the exit notifications a Kill
	// fans out — but never all of them, since a totally unobserved failure
	// would hang any detector without timeouts. NotifyDup delivers some
	// notifications twice, exercising receiver-side dedup.
	NotifyDrop bool
	NotifyDup  bool
}

// chaosState is the mutable runtime of a FaultPlan.
type chaosState struct {
	mu   sync.Mutex
	plan FaultPlan
	rng  *xrand.Rand
}

// newChaosState returns nil for a plan that perturbs nothing.
func newChaosState(plan FaultPlan) *chaosState {
	if plan.JitterUS <= 0 && !plan.NotifyDrop && !plan.NotifyDup {
		return nil
	}
	return &chaosState{plan: plan, rng: xrand.New(plan.ChaosSeed)}
}

// onSend returns the seeded extra latency for the next message.
func (c *chaosState) onSend() (jitter float64) {
	if c.plan.JitterUS <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rng.Float64() * c.plan.JitterUS
}

// notifyFates decides, for a kill's fan-out of n exit notifications, how
// many copies each watcher receives (0 = dropped, 2 = duplicated). At
// least one watcher always receives the notification: with no timeout
// detectors in the system, a fully dropped fan-out would go unnoticed
// forever, which models a detector failure rather than a network fault.
func (c *chaosState) notifyFates(n int) []int {
	fates := make([]int, n)
	for i := range fates {
		fates[i] = 1
	}
	if n == 0 {
		return fates
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	delivered := false
	for i := range fates {
		if c.plan.NotifyDrop && c.rng.Float64() < 0.3 {
			fates[i] = 0
			continue
		}
		if c.plan.NotifyDup && c.rng.Float64() < 0.3 {
			fates[i] = 2
		}
		delivered = true
	}
	if !delivered {
		fates[0] = 1
	}
	return fates
}

// sortedTIDs returns the watcher set in deterministic order so seeded
// drop/duplicate decisions are stable for a given fan-out.
func sortedTIDs(set map[TID]bool) []TID {
	out := make([]TID, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
