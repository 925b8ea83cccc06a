package experiments

// The chaos suite: each application runs a sweep of seeded randomized
// kill schedules (including the fixed hard archetypes: coordinator +
// survivor killed together, re-kill during recovery, survivor killed
// mid-contribution, coordinator-takeover chains) and every schedule must
// reproduce the fault-free answer bit-for-bit and pass the end-state
// invariants. CI runs these under -race across a seed matrix via
// SAMFT_CHAOS_SEED; any failing schedule is reproducible from the printed
// seed and index alone.

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"samft/internal/ckptstore"
)

// chaosSeed returns the sweep seed, overridable for CI's seed matrix.
func chaosSeed(t *testing.T) uint64 {
	s := os.Getenv("SAMFT_CHAOS_SEED")
	if s == "" {
		return 1
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		t.Fatalf("bad SAMFT_CHAOS_SEED %q: %v", s, err)
	}
	return v
}

// chaosPlacement returns the checkpoint placement policy for the sweep,
// overridable for CI's (seed, placement) matrix via SAMFT_PLACEMENT
// (ring, affinity, spread).
func chaosPlacement(t *testing.T) ckptstore.Kind {
	k, err := ckptstore.ParseKind(os.Getenv("SAMFT_PLACEMENT"))
	if err != nil {
		t.Fatalf("bad SAMFT_PLACEMENT: %v", err)
	}
	return k
}

func runChaosSweep(t *testing.T, app AppKind) {
	runChaosSweepSpec(t, ChaosSpec{
		App:       app,
		Seed:      chaosSeed(t),
		Placement: chaosPlacement(t),
	})
}

func runChaosSweepSpec(t *testing.T, spec ChaosSpec) {
	if spec.Schedules == 0 {
		spec.Schedules = 20
		if testing.Short() {
			// Under -short keep the fixed archetypes plus a few randomized
			// schedules; the full 20-schedule sweep runs in CI and via
			// `ftbench -chaos`.
			spec.Schedules = 6
		}
	}
	spec.Jitter = true
	spec.NotifyChaos = true
	res, err := RunChaos(spec)
	if err != nil {
		t.Fatalf("chaos sweep: %v", err)
	}
	for _, s := range res.Schedules {
		if len(s.Problems) == 0 {
			continue
		}
		t.Errorf("schedule %d (seed %d, kills: %s) failed:", s.Index, res.Spec.Seed, formatKills(s.Kills))
		for _, p := range s.Problems {
			t.Errorf("  %s", p)
		}
	}
	if res.Failed > 0 {
		t.Fatalf("%d/%d schedules failed (seed %d)", res.Failed, len(res.Schedules), res.Spec.Seed)
	}
}

func TestChaosGPS(t *testing.T)    { runChaosSweep(t, GPS) }
func TestChaosWater(t *testing.T)  { runChaosSweep(t, Water) }
func TestChaosBarnes(t *testing.T) { runChaosSweep(t, Barnes) }

// The non-default placement policies get a dedicated (shorter) sweep each
// so every local run covers them even when SAMFT_PLACEMENT is unset; CI's
// (seed, placement) matrix additionally runs the full per-app sweeps under
// each policy.
func TestChaosPlacementAffinity(t *testing.T) {
	runChaosSweepSpec(t, ChaosSpec{
		App: GPS, Seed: chaosSeed(t), Schedules: 8, Placement: ckptstore.Affinity,
	})
}

func TestChaosPlacementSpread(t *testing.T) {
	runChaosSweepSpec(t, ChaosSpec{
		App: GPS, Seed: chaosSeed(t), Schedules: 8, Placement: ckptstore.Spread,
	})
}

// Erasure-coded checkpoint copies: N=5 so a (2,2) code fits on the four
// non-owner ranks, and MaxKills=2 keeps every schedule within the code's
// loss budget (m=2 simultaneous failures).
func TestChaosErasureCoding(t *testing.T) {
	runChaosSweepSpec(t, ChaosSpec{
		App: GPS, Seed: chaosSeed(t), Schedules: 8,
		N: 5, Degree: 2, MaxKills: 2, ECData: 2, ECParity: 2,
	})
}

// TestChaosRepeatedFailureDecay is the redundancy-decay acceptance
// scenario: two back-to-back rounds of Degree kills with every rank
// parked at a step boundary in between (no intervening application-driven
// checkpoint), surviving only because the coverage ledger proactively
// re-replicates the copies each round destroys.
func TestChaosRepeatedFailureDecay(t *testing.T) {
	res, err := RunDecay(DecaySpec{Placement: chaosPlacement(t)})
	if err != nil {
		t.Fatalf("decay run: %v", err)
	}
	for _, p := range res.Problems {
		t.Errorf("%s", p)
	}
	if t.Failed() {
		t.Logf("repair traffic: %d objects, %d bytes", res.RepairObjects, res.RepairBytes)
	}
}

// --- schedule-generation regression tests ---
//
// Two generator bugs are pinned here: (1) randomized schedules could take
// down more distinct ranks than an active (k,m) erasure code's m-loss
// budget, reporting unsurvivable-by-design runs as chaos failures; (2)
// the fixed archetypes hard-code ranks 0-3, so at N < 4 some Kill calls
// silently no-oped and the schedule tested less than it claimed.

// scheduleVictims returns the distinct victim ranks of a schedule.
func scheduleVictims(kills []KillEvent) map[int]bool {
	v := make(map[int]bool)
	for _, k := range kills {
		v[k.Rank] = true
	}
	return v
}

func checkSchedule(t *testing.T, spec ChaosSpec, i int, kills []KillEvent) {
	t.Helper()
	budget := ckptstore.Survivable(spec.N, spec.Degree, ckptstore.ECParams{K: spec.ECData, M: spec.ECParity})
	victims := scheduleVictims(kills)
	if len(victims) > budget {
		t.Errorf("schedule %d: %d distinct victims exceeds budget %d (%s)",
			i, len(victims), budget, formatKills(kills))
	}
	seen := make(map[KillEvent]bool)
	for _, k := range kills {
		if k.Rank < 0 || k.Rank >= spec.N {
			t.Errorf("schedule %d: rank %d out of range [0,%d)", i, k.Rank, spec.N)
		}
		if k.OnRecovery && !victims[k.RecoveryOf] {
			t.Errorf("schedule %d: on-recovery trigger rides rank %d, which is never killed", i, k.RecoveryOf)
		}
		if seen[k] {
			t.Errorf("schedule %d: duplicate event %+v (a guaranteed no-op kill)", i, k)
		}
		seen[k] = true
	}
	if len(kills) == 0 {
		t.Errorf("schedule %d: clamp produced an empty schedule", i)
	}
}

// TestChaosScheduleECBudget sweeps generated schedules across EC shapes
// and seeds: with the code active, no schedule may exceed m distinct
// victims (the pre-fix generator did at MaxKills > ECParity).
func TestChaosScheduleECBudget(t *testing.T) {
	for _, ec := range []struct{ k, m int }{{2, 1}, {2, 2}, {3, 1}} {
		spec := ChaosSpec{
			App: GPS, N: ec.k + ec.m + 1, Degree: 2, MaxKills: 4,
			Seed: chaosSeed(t), Schedules: 40, ECData: ec.k, ECParity: ec.m,
		}
		spec.fill()
		if got := ckptstore.Survivable(spec.N, spec.Degree, ckptstore.ECParams{K: spec.ECData, M: spec.ECParity}); got != ec.m {
			t.Fatalf("ec(%d,%d): survivable failures = %d, want parity %d", ec.k, ec.m, got, ec.m)
		}
		for i := 0; i < spec.Schedules; i++ {
			checkSchedule(t, spec, i, chaosSchedule(spec, i))
		}
	}
}

// TestChaosScheduleSmallN pins the archetype clamp: at N of 2 and 3 every
// generated event must address a real rank and stay within
// min(Degree, N-1) distinct victims.
func TestChaosScheduleSmallN(t *testing.T) {
	for _, n := range []int{2, 3} {
		spec := ChaosSpec{App: Water, N: n, Degree: 2, MaxKills: 3, Seed: chaosSeed(t), Schedules: 20}
		spec.fill()
		for i := 0; i < spec.Schedules; i++ {
			checkSchedule(t, spec, i, chaosSchedule(spec, i))
		}
	}
}

// TestChaosSmallClusterKillsApply runs the four fixed archetypes on a
// three-rank cluster and requires every scheduled kill to have taken down
// a live process: the schedule's intent must survive the clamp, not just
// its shape.
func TestChaosSmallClusterKillsApply(t *testing.T) {
	spec := ChaosSpec{App: GPS, N: 3, Seed: chaosSeed(t), Schedules: 4}
	res, err := RunChaos(spec)
	if err != nil {
		t.Fatalf("chaos sweep: %v", err)
	}
	if res.Failed > 0 {
		for _, s := range res.Schedules {
			for _, p := range s.Problems {
				t.Errorf("schedule %d: %s", s.Index, p)
			}
		}
		t.Fatalf("%d/%d schedules failed at N=3", res.Failed, len(res.Schedules))
	}
	for _, s := range res.Schedules {
		if s.Result.KillsApplied != len(s.Kills) {
			t.Errorf("schedule %d: %d/%d kills applied — a scheduled kill was a silent no-op (%s)",
				s.Index, s.Result.KillsApplied, len(s.Kills), formatKills(s.Kills))
		}
	}
}

// TestChaosECRandomizedNoFalseFailures is the acceptance sweep for the EC
// budget fix: randomized schedules with MaxKills above the (2,1) code's
// one-loss budget must clamp into survivable shapes and report zero
// failures. Before the fix this configuration scheduled two simultaneous
// losses the code cannot decode.
func TestChaosECRandomizedNoFalseFailures(t *testing.T) {
	runChaosSweepSpec(t, ChaosSpec{
		App: GPS, Seed: chaosSeed(t), Schedules: 8,
		N: 4, Degree: 2, MaxKills: 3, ECData: 2, ECParity: 1,
	})
}

// TestChaosTraceDumpFailureReported pins the dump-error path: a requested
// trace dump that cannot be written (here the target root is a regular
// file) must surface on the schedule instead of vanishing.
func TestChaosTraceDumpFailureReported(t *testing.T) {
	blocked := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(blocked, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := RunChaos(ChaosSpec{App: GPS, Seed: chaosSeed(t), Schedules: 1, TraceDir: blocked})
	if err != nil {
		t.Fatalf("chaos sweep: %v", err)
	}
	s := res.Schedules[0]
	if s.TraceDir != "" {
		t.Fatalf("schedule claims a trace at %s despite the blocked root", s.TraceDir)
	}
	report := append(append([]string{}, s.Problems...), s.Warnings...)
	found := false
	for _, m := range report {
		if strings.Contains(m, "trace dump") && strings.Contains(m, "failed") {
			found = true
		}
	}
	if !found {
		t.Fatalf("dump failure not reported; problems=%v warnings=%v", s.Problems, s.Warnings)
	}
	if len(s.Problems) > 0 {
		t.Fatalf("a passing schedule's dump failure must be a warning, not a problem: %v", s.Problems)
	}
}
