package experiments_test

// The chaos suite: each application runs a sweep of seeded randomized
// kill schedules (including the fixed hard archetypes: coordinator +
// survivor killed together, re-kill during recovery, survivor killed
// mid-contribution, coordinator-takeover chains) and every schedule must
// reproduce the fault-free answer bit-for-bit and pass the end-state
// invariants. CI runs these under -race across a seed matrix via
// SAMFT_CHAOS_SEED; any failing schedule is reproducible from the printed
// seed and index alone, and from the scenario.json dumped beside its trace.
//
// The sweeps are generated scenarios (scenario.ChaosSpec) run and judged by
// scenario.RunSet like any campaign; they live in this directory, as an
// external test package, beside the decay run and the run-timeout test.

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"samft/internal/ckptstore"
	"samft/internal/experiments"
	"samft/internal/scenario"
)

// fleet is app on n workstations (0 = the generator's default, 4) at the
// default degree 2.
func fleet(app string, n int) scenario.Fleet {
	return scenario.Fleet{Procs: n, App: app}
}

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
// (ring or spread).
func chaosPlacement(t *testing.T) ckptstore.Kind {
	switch p := os.Getenv("SAMFT_PLACEMENT"); p {
	case "", "ring":
		return ckptstore.Ring
	case "spread":
		return ckptstore.Spread
	default:
		t.Fatalf("bad SAMFT_PLACEMENT %q (want ring or spread)", p)
		return 0
	}
}

// runChaos generates spec's scenarios, holds them to the file format's
// rules (scenario.Build), and runs them as one judged batch.
func runChaos(t *testing.T, spec scenario.ChaosSpec, traceDir string) []scenario.Outcome {
	t.Helper()
	cs, err := scenario.Build(spec.Scenarios()...)
	if err != nil {
		t.Fatalf("generated scenario rejected by the validator: %v", err)
	}
	outs, err := scenario.RunSet(cs, traceDir)
	if err != nil {
		t.Fatalf("chaos sweep: %v", err)
	}
	return outs
}

func runChaosSweep(t *testing.T, app string) {
	f := fleet(app, 0)
	f.FT.Placement = chaosPlacement(t).String()
	runChaosSweepSpec(t, scenario.ChaosSpec{Fleet: f, Seed: chaosSeed(t)})
}

func runChaosSweepSpec(t *testing.T, spec scenario.ChaosSpec) {
	if spec.Schedules == 0 {
		spec.Schedules = 20
		if testing.Short() {
			// Under -short keep the fixed archetypes plus a few randomized
			// schedules; the full 20-schedule sweep runs without -short.
			spec.Schedules = 6
		}
	}
	spec.Jitter = true
	spec.NotifyChaos = true
	outs := runChaos(t, spec, "")
	failed := 0
	for i, o := range outs {
		if len(o.Problems) == 0 {
			continue
		}
		failed++
		t.Errorf("schedule %d (%s, kills: %s) failed:", i, o.Name, experiments.FormatKills(o.Result.Spec.Kills))
		for _, p := range o.Problems {
			t.Errorf("  %s", p)
		}
		t.Errorf("  replay: samrun run %s/scenario.json", o.TraceDir)
	}
	if failed > 0 {
		t.Fatalf("%d/%d schedules failed (seed %d)", failed, len(outs), spec.Seed)
	}
}

func TestChaosGPS(t *testing.T)    { runChaosSweep(t, "gps") }
func TestChaosWater(t *testing.T)  { runChaosSweep(t, "water") }
func TestChaosBarnes(t *testing.T) { runChaosSweep(t, "barnes") }

// The non-default placement policy gets a dedicated (shorter) sweep so
// every local run covers it even when SAMFT_PLACEMENT is unset; CI's
// (seed, placement) matrix additionally runs the full per-app sweeps under
// each policy.
func TestChaosPlacementSpread(t *testing.T) {
	f := fleet("gps", 0)
	f.FT.Placement = "spread"
	runChaosSweepSpec(t, scenario.ChaosSpec{Fleet: f, Seed: chaosSeed(t), Schedules: 8})
}

// TestChaosRepeatedFailureDecay is the redundancy-decay acceptance
// scenario: two back-to-back rounds of Degree kills with every rank
// parked at a step boundary in between (no intervening application-driven
// checkpoint), surviving only because the coverage ledger proactively
// re-replicates the copies each round destroys.
func TestChaosRepeatedFailureDecay(t *testing.T) {
	res, err := experiments.RunDecay(chaosPlacement(t))
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
// One generator bug is pinned here: the fixed archetypes hard-code ranks
// 0-3, so at N < 4 some Kill calls silently no-oped and the schedule
// tested less than it claimed. Every schedule must also stay within the
// fleet's survivable budget.

// scheduleVictims returns the distinct victim ranks of a schedule.
func scheduleVictims(kills []experiments.KillEvent) map[int]bool {
	v := make(map[int]bool)
	for _, k := range kills {
		v[k.Rank] = true
	}
	return v
}

// generated returns the kill schedules spec generates, read back off the
// compiled scenarios — what a run of them executes.
func generated(t *testing.T, spec scenario.ChaosSpec) [][]experiments.KillEvent {
	t.Helper()
	cs, err := scenario.Build(spec.Scenarios()...)
	if err != nil {
		t.Fatalf("generated scenario rejected by the validator: %v", err)
	}
	out := make([][]experiments.KillEvent, len(cs))
	for i, c := range cs {
		out[i] = c.Spec.Kills
	}
	return out
}

func checkSchedule(t *testing.T, spec scenario.ChaosSpec, i int, kills []experiments.KillEvent) {
	t.Helper()
	n := spec.Fleet.Procs
	budget := ckptstore.Survivable(n, 2)
	victims := scheduleVictims(kills)
	if len(victims) > budget {
		t.Errorf("schedule %d: %d distinct victims exceeds budget %d (%s)",
			i, len(victims), budget, experiments.FormatKills(kills))
	}
	seen := make(map[experiments.KillEvent]bool)
	for _, k := range kills {
		if k.Rank < 0 || k.Rank >= n {
			t.Errorf("schedule %d: rank %d out of range [0,%d)", i, k.Rank, n)
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

// TestChaosScheduleSmallN pins the archetype clamp: at N of 2 and 3 every
// generated event must address a real rank and stay within
// min(Degree, N-1) distinct victims.
func TestChaosScheduleSmallN(t *testing.T) {
	for _, n := range []int{2, 3} {
		spec := scenario.ChaosSpec{Fleet: fleet("water", n), MaxKills: 3, Seed: chaosSeed(t), Schedules: 20}
		for i, kills := range generated(t, spec) {
			checkSchedule(t, spec, i, kills)
		}
	}
}

// TestChaosSmallClusterKillsApply runs the four fixed archetypes on a
// three-rank cluster and requires every scheduled kill to have taken down
// a live process: the schedule's intent must survive the clamp, not just
// its shape.
func TestChaosSmallClusterKillsApply(t *testing.T) {
	outs := runChaos(t, scenario.ChaosSpec{Fleet: fleet("gps", 3), Seed: chaosSeed(t), Schedules: 4}, "")
	for i, o := range outs {
		for _, p := range o.Problems {
			t.Errorf("schedule %d: %s", i, p)
		}
	}
	if t.Failed() {
		t.Fatalf("schedules failed at N=3")
	}
	for i, o := range outs {
		if kills := o.Result.Spec.Kills; o.Result.KillsApplied != len(kills) {
			t.Errorf("schedule %d: %d/%d kills applied — a scheduled kill was a silent no-op (%s)",
				i, o.Result.KillsApplied, len(kills), experiments.FormatKills(kills))
		}
	}
}

// TestChaosTraceDumpFailureReported pins the dump-error path: a requested
// trace dump that cannot be written (here the target root is a regular
// file) must surface on the schedule instead of vanishing.
func TestChaosTraceDumpFailureReported(t *testing.T) {
	blocked := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(blocked, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := runChaos(t, scenario.ChaosSpec{Fleet: fleet("gps", 0), Seed: chaosSeed(t), Schedules: 1}, blocked)[0]
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
