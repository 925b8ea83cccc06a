package scenario

import (
	"fmt"

	"samft/internal/ckptstore"
)

// validate performs every semantic check and returns all violations,
// positioned via the index. The rules are deliberately stricter than the
// runtime (which tolerates, say, a degree above procs-1 by clamping it): a
// scenario file is a reviewable claim, and a claim that silently means
// something else is a bug.
func validate(s *Scenario, idx *posIndex) ErrorList {
	var errs ErrorList
	add := func(path, format string, args ...interface{}) {
		errs = append(errs, idx.at(path, fmt.Sprintf(format, args...)))
	}

	if s.Name == "" {
		add("name", "scenario name is required")
	}
	n := s.Fleet.Procs
	if n < 1 {
		add("fleet.procs", "procs must be >= 1 (got %d)", n)
		n = 1 // keep rank-range checks from cascading
	}
	if s.Fleet.App == "" {
		add("fleet.app", `app is required: "gps", "water", or "barnes"`)
	} else if _, ok := apps[s.Fleet.App]; !ok {
		add("fleet.app", `unknown app %q (want "gps", "water", or "barnes")`, s.Fleet.App)
	}
	switch s.Fleet.Scale {
	case "", "small", "paper":
	default:
		add("fleet.scale", `unknown scale %q (want "small" or "paper")`, s.Fleet.Scale)
	}
	if _, ok := policies[s.Fleet.FT.Policy]; !ok {
		add("fleet.ft.policy", `unknown ft policy %q (want "sam", "naive", or "off")`, s.Fleet.FT.Policy)
	}
	if s.Fleet.FT.Degree < 0 {
		add("fleet.ft.degree", "degree must be >= 0 (got %d)", s.Fleet.FT.Degree)
	}
	if _, ok := placements[s.Fleet.FT.Placement]; !ok {
		add("fleet.ft.placement", `unknown placement %q (want "ring", "affinity", or "spread")`, s.Fleet.FT.Placement)
	}

	errs = append(errs, validateEvents(s, idx, n)...)

	a := s.Assert
	if a.MaxRecoveryModeledSec < 0 {
		add("assert.max_recovery_modeled_sec", "bound must be >= 0 (got %v)", a.MaxRecoveryModeledSec)
	}
	kills := countKills(s)
	if a.MaxRecoveryModeledSec > 0 && kills == 0 {
		add("assert.max_recovery_modeled_sec", "recovery bound asserted but the schedule has no kill events")
	}
	if a.MinKillsApplied != nil {
		if *a.MinKillsApplied < 0 {
			add("assert.min_kills_applied", "must be >= 0 (got %d)", *a.MinKillsApplied)
		} else if *a.MinKillsApplied > kills {
			add("assert.min_kills_applied", "requires %d applied kills but the schedule has only %d kill events", *a.MinKillsApplied, kills)
		}
	}
	if kills > 0 && s.Fleet.FT.Policy == "off" {
		add("fleet.ft.policy", `policy "off" cannot recover from the schedule's kill events; the run would never finish`)
	}
	return errs
}

// validateEvents checks every event plus the cross-event rules: kill
// triggers well-formed, ranks in range, on_recovery_of referencing an
// earlier victim, at most one jitter/notify event, one slow_host per
// rank, and the failure schedule inside the survivable budget — for the
// ranks killed at one step, and for the ranks an on_recovery_of chain has
// down at once.
func validateEvents(s *Scenario, idx *posIndex, n int) ErrorList {
	var errs ErrorList
	add := func(path, format string, args ...interface{}) {
		errs = append(errs, idx.at(path, fmt.Sprintf(format, args...)))
	}
	fleet := s.Fleet
	fleet.Procs = n
	budget := fleet.survivable()

	victims := make(map[int]bool)
	stepVictims := make(map[int64]map[int]bool) // at_step -> distinct ranks
	// chain[r] is the set of ranks down together with r: a victim and every
	// rank killed on a respawn along its on_recovery_of chain. A respawn is
	// not a completed recovery, so the whole chain can be restoring at once.
	chain := make(map[int]map[int]bool)
	slowed := make(map[int]bool)
	jitterSeen, notifySeen := false, false
	for i, ev := range s.Events {
		path := fmt.Sprintf("events[%d]", i)
		set := 0
		if ev.Kill != nil {
			set++
		}
		if ev.Jitter != nil {
			set++
		}
		if ev.Notify != nil {
			set++
		}
		if ev.SlowHost != nil {
			set++
		}
		if set != 1 {
			add(path, "event must set exactly one of kill, jitter, notify, slow_host (got %d)", set)
			continue
		}
		switch {
		case ev.Kill != nil:
			k := ev.Kill
			if k.Rank < 0 || k.Rank >= n {
				add(path+".kill.rank", "rank %d out of range [0,%d)", k.Rank, n)
			}
			triggers := 0
			if k.AtStep > 0 {
				triggers++
			}
			if k.AtModeledSec > 0 {
				triggers++
			}
			if k.OnRecoveryOf != nil {
				triggers++
			}
			if k.AtStep < 0 {
				add(path+".kill.at_step", "at_step must be > 0 (got %d)", k.AtStep)
			}
			if k.AtModeledSec < 0 {
				add(path+".kill.at_modeled_sec", "at_modeled_sec must be > 0 (got %v)", k.AtModeledSec)
			}
			if triggers != 1 {
				add(path+".kill", "kill needs exactly one trigger: at_step, at_modeled_sec, or on_recovery_of (got %d)", triggers)
			}
			if k.OnRecoveryOf != nil {
				r := *k.OnRecoveryOf
				if r < 0 || r >= n {
					add(path+".kill.on_recovery_of", "rank %d out of range [0,%d)", r, n)
				} else if !victims[r] {
					add(path+".kill.on_recovery_of", "rank %d is not killed by an earlier event, so this trigger would never fire", r)
				}
			}
			if k.OnRecoveryCount < 0 {
				add(path+".kill.on_recovery_count", "must be >= 0 (got %d)", k.OnRecoveryCount)
			}
			if k.OnRecoveryCount > 0 && k.OnRecoveryOf == nil {
				add(path+".kill.on_recovery_count", "only meaningful with on_recovery_of")
			}
			if k.Rank >= 0 && k.Rank < n {
				if k.AtStep > 0 {
					if stepVictims[k.AtStep] == nil {
						stepVictims[k.AtStep] = make(map[int]bool)
					}
					stepVictims[k.AtStep][k.Rank] = true
					if got := len(stepVictims[k.AtStep]); got > budget {
						add(path+".kill", "%d distinct ranks killed at step %d exceeds the survivable budget of %d (min(degree, procs-1))",
							got, k.AtStep, budget)
					}
				}
				if r := k.OnRecoveryOf; r != nil && victims[*r] {
					down := chain[*r]
					for m := range chain[k.Rank] { // k.Rank's own chain joins this one
						down[m], chain[m] = true, down
					}
					down[k.Rank], chain[k.Rank] = true, down
					if len(down) > budget {
						add(path+".kill", "on_recovery_of chain has %d distinct ranks down at once, exceeding the survivable budget of %d (min(degree, procs-1)): a respawn is not a completed recovery",
							len(down), budget)
					}
				} else if chain[k.Rank] == nil {
					chain[k.Rank] = map[int]bool{k.Rank: true}
				}
				victims[k.Rank] = true
			}
		case ev.Jitter != nil:
			if ev.Jitter.US <= 0 {
				add(path+".jitter.us", "jitter must be > 0 microseconds (got %v)", ev.Jitter.US)
			}
			if jitterSeen {
				add(path+".jitter", "duplicate jitter event; only one is allowed")
			}
			jitterSeen = true
		case ev.Notify != nil:
			if !ev.Notify.Drop && !ev.Notify.Dup {
				add(path+".notify", "notify event enables neither drop nor dup")
			}
			if notifySeen {
				add(path+".notify", "duplicate notify event; only one is allowed")
			}
			notifySeen = true
		case ev.SlowHost != nil:
			sh := ev.SlowHost
			if sh.Rank < 0 || sh.Rank >= n {
				add(path+".slow_host.rank", "rank %d out of range [0,%d)", sh.Rank, n)
			} else if slowed[sh.Rank] {
				add(path+".slow_host.rank", "rank %d already has a slow_host event", sh.Rank)
			} else {
				slowed[sh.Rank] = true
			}
			if sh.Factor <= 0 {
				add(path+".slow_host.factor", "factor must be > 0 (got %v)", sh.Factor)
			}
		}
	}
	return errs
}

// survivable is the failure budget of a fleet: how many distinct ranks may
// be down at once (ckptstore.Survivable). The validator holds schedules to
// it and the chaos generator clamps its own by it.
func (f Fleet) survivable() int {
	degree := f.FT.Degree
	if degree == 0 {
		degree = defaultDegree
	}
	return ckptstore.Survivable(f.Procs, degree)
}

func countKills(s *Scenario) int {
	n := 0
	for _, ev := range s.Events {
		if ev.Kill != nil {
			n++
		}
	}
	return n
}
