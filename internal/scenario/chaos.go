package scenario

import (
	"fmt"

	"samft/internal/experiments"
	"samft/internal/xrand"
)

// The chaos generator turns the paper's central robustness claim —
// degree-k replication tolerates k simultaneous workstation failures with
// no survivor rollback — into a tested property: N seeded randomized kill
// schedules per application, emitted as scenarios like any hand-written
// one, so RunSet verifies each byte-for-byte against the fault-free answer
// and checks the end-state invariants, and a red one is a scenario.json
// that `samrun run` replays.

// ChaosSpec configures one application's chaos sweep.
type ChaosSpec struct {
	// Fleet is what every generated scenario runs on — application, cluster
	// size (default 4) and fault-tolerance configuration (degree 2 by
	// default, like any scenario). The generator caps each schedule's
	// distinct victims at the fleet's survivable budget; excess kills become
	// re-kills of an already-dead rank's replacement, which never exceed it.
	Fleet Fleet
	// Schedules is the number of seeded kill schedules to generate (default
	// 20). The first few are fixed archetypes covering the known-hard cases
	// (coordinator + survivor, re-kill during recovery, …); the rest are
	// randomized from Seed (default 1).
	Schedules int
	Seed      uint64
	// MaxKills bounds the failures per schedule (default 2, the default
	// degree).
	MaxKills int
	// Jitter adds seeded per-message delay jitter; NotifyChaos drops and
	// duplicates exit notifications.
	Jitter      bool
	NotifyChaos bool
}

// Scenarios generates the sweep: scenario i is <App>-seed<S>-schedule<NN>,
// described by its kill schedule, with the network-chaos events seeded
// Seed+i. min_kills_applied is 0 — a generated trigger may legitimately
// never fire (its subject finished first) — so the verdict is the answer
// and the invariants, nothing else.
func (spec ChaosSpec) Scenarios() []*Scenario {
	if spec.Fleet.Procs <= 0 {
		spec.Fleet.Procs = 4
	}
	if spec.Schedules <= 0 {
		spec.Schedules = 20
	}
	if spec.MaxKills <= 0 {
		spec.MaxKills = 2
	}
	if spec.Seed == 0 {
		spec.Seed = 1
	}
	app := apps[spec.Fleet.App]
	out := make([]*Scenario, spec.Schedules)
	for i := range out {
		kills := chaosSchedule(spec, app, i)
		s := &Scenario{
			Name:        fmt.Sprintf("%s-seed%d-schedule%02d", app, spec.Seed, i),
			Description: experiments.FormatKills(kills),
			Fleet:       spec.Fleet,
			Seed:        spec.Seed + uint64(i),
			Assert:      Assert{MinKillsApplied: new(int)},
		}
		for _, k := range kills {
			ev := &KillSpec{Rank: k.Rank, AtStep: k.Step}
			if k.OnRecovery {
				of := k.RecoveryOf
				ev.OnRecoveryOf = &of
			}
			s.Events = append(s.Events, Event{Kill: ev})
		}
		if spec.Jitter {
			s.Events = append(s.Events, Event{Jitter: &JitterSpec{US: 40}}) // ~half the modeled one-way latency
		}
		if spec.NotifyChaos {
			s.Events = append(s.Events, Event{Notify: &NotifySpec{Drop: true, Dup: true}})
		}
		out[i] = s
	}
	return out
}

// archetypes are the fixed schedules every sweep starts with, hitting the
// hardened recovery paths.
var archetypes = [][]experiments.KillEvent{
	// Two simultaneous kills including the coordinator (rank 0) and a
	// survivor that holds recovery state for it.
	{{Rank: 0, Step: 2}, {Rank: 1, Step: 2}},
	// Re-kill the recovering process before it can finish restoring.
	{{Rank: 2, Step: 2}, {Rank: 2, OnRecovery: true, RecoveryOf: 2}},
	// Kill a survivor while it is contributing to another rank's recovery
	// (its kRecoverFin is lost).
	{{Rank: 1, Step: 2}, {Rank: 3, OnRecovery: true, RecoveryOf: 1}},
	// The takeover case: kill the coordinator, then kill the next
	// coordinator in line mid-recovery.
	{{Rank: 0, Step: 1}, {Rank: 1, OnRecovery: true, RecoveryOf: 0}},
}

// chaosSchedule generates the kill schedule for index i: an archetype, or —
// past them — one randomized from (seed, app, i) via the splittable PRNG,
// so any failing schedule is reproducible from its index alone. Every
// schedule passes through clampSchedule, so the archetypes (written for
// the default N=4) stay meaningful at smaller N and randomized schedules
// never exceed the configuration's survivable failure budget.
func chaosSchedule(spec ChaosSpec, app experiments.AppKind, i int) []experiments.KillEvent {
	if i < len(archetypes) {
		return clampSchedule(spec.Fleet, archetypes[i])
	}
	type kill = experiments.KillEvent
	rng, procs := xrand.At(spec.Seed, int64(app), int64(i)), spec.Fleet.Procs
	n := 1 + rng.Intn(spec.MaxKills)
	kills := make([]kill, 0, n)
	// First kill is always step-triggered; later ones may ride the first
	// kills' recoveries. Steps stay in [1,3]: every app has at least three
	// steps at any scale, so the schedule lands inside live computation.
	kills = append(kills, kill{Rank: rng.Intn(procs), Step: int64(1 + rng.Intn(3))})
	for k := 1; k < n; k++ {
		if rng.Intn(2) == 0 {
			prev := kills[rng.Intn(len(kills))]
			kills = append(kills, kill{
				Rank:       rng.Intn(procs),
				OnRecovery: true,
				RecoveryOf: prev.Rank,
			})
		} else {
			kills = append(kills, kill{Rank: rng.Intn(procs), Step: int64(1 + rng.Intn(3))})
		}
	}
	return clampSchedule(spec.Fleet, kills)
}

// clampSchedule rewrites a generated schedule so every event is effective
// and the schedule stays within the configuration's survivable envelope —
// the one the scenario validator enforces on files:
//
//   - ranks are reduced mod N, so the fixed archetypes never address
//     out-of-range ranks whose Kill would be a silent no-op at N < 4;
//   - exact-duplicate events are dropped — the second Kill of a rank that
//     just died at the same trigger is a guaranteed no-op and would make
//     KillsApplied under-report the schedule's intent;
//   - the distinct victim ranks are capped at ckptstore.Survivable (how
//     many a schedule may take down before it leaves the guaranteed-
//     survivable envelope): an excess kill is redirected into a re-kill of
//     the first victim's replacement, which keeps recovery pressure
//     without manufacturing a state the paper's guarantee never promised
//     to survive.
func clampSchedule(fleet Fleet, kills []experiments.KillEvent) []experiments.KillEvent {
	budget := fleet.survivable()
	mod := func(r int) int { return ((r % fleet.Procs) + fleet.Procs) % fleet.Procs }
	victims := make(map[int]bool)
	seen := make(map[experiments.KillEvent]bool)
	firstVictim := -1
	out := make([]experiments.KillEvent, 0, len(kills))
	for _, k := range kills {
		k.Rank = mod(k.Rank)
		if k.OnRecovery {
			k.RecoveryOf = mod(k.RecoveryOf)
		}
		if !victims[k.Rank] && len(victims) >= budget {
			k = experiments.KillEvent{Rank: firstVictim, OnRecovery: true, RecoveryOf: firstVictim}
		}
		if k.OnRecovery && !victims[k.RecoveryOf] {
			// A trigger riding a rank that is never killed would not fire;
			// ride the first victim's recovery instead.
			k.RecoveryOf = firstVictim
		}
		if seen[k] {
			continue
		}
		seen[k] = true
		victims[k.Rank] = true
		if firstVictim < 0 {
			firstVictim = k.Rank
		}
		out = append(out, k)
	}
	return out
}
