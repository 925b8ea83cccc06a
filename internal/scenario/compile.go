package scenario

import (
	"samft/internal/ckptstore"
	"samft/internal/experiments"
	"samft/internal/ft"
)

// defaultDegree is the replication degree when the file omits it — the
// same degree the chaos sweeps run at.
const defaultDegree = 2

// Compiled is a validated scenario lowered to executable specs plus the
// resolved assertion thresholds.
type Compiled struct {
	Scenario *Scenario
	// Path is the source file ("" when loaded from bytes); campaign
	// reports lead with it.
	Path string
	// Spec is the faulted run.
	Spec experiments.Spec
	// Baseline is the fault-free twin (same fleet and FT configuration,
	// no kills, no chaos) the answer assertion compares against.
	Baseline experiments.Spec
	// Resolved assertions.
	CheckAnswer    bool
	MaxRecoverySec float64
	MinKills       int
}

// Compile lowers a validated scenario. It must only be called on a
// scenario that passed Load (or validate): unknown enum values panic
// here rather than guess.
func Compile(s *Scenario, path string) Compiled {
	// The baseline twin is the fleet and its FT configuration, nothing else;
	// the faulted run adds every perturbation — kills, network chaos, host
	// slowdowns — none of which may change the computed answer, so the
	// answer comparison isolates the faults.
	baseline := experiments.Spec{
		N:         s.Fleet.Procs,
		App:       lower(apps, "app", s.Fleet.App),
		Policy:    lower(policies, "policy", s.Fleet.FT.Policy),
		Degree:    s.Fleet.FT.Degree,
		Placement: lower(placements, "placement", s.Fleet.FT.Placement),
	}
	if baseline.Degree == 0 {
		baseline.Degree = defaultDegree
	}
	if s.Fleet.Scale == "paper" {
		baseline.Scale = experiments.Paper
	}
	spec := baseline
	spec.ChaosSeed = s.Seed
	for _, ev := range s.Events {
		switch {
		case ev.Kill != nil:
			k := ev.Kill
			kill := experiments.KillEvent{
				Rank:         k.Rank,
				Step:         k.AtStep,
				AtModeledSec: k.AtModeledSec,
			}
			if k.OnRecoveryOf != nil {
				kill.OnRecovery = true
				kill.RecoveryOf = *k.OnRecoveryOf
				kill.RecoveryCount = k.OnRecoveryCount
			}
			spec.Kills = append(spec.Kills, kill)
		case ev.Jitter != nil:
			spec.JitterUS = ev.Jitter.US
		case ev.Notify != nil:
			spec.NotifyDrop = ev.Notify.Drop
			spec.NotifyDup = ev.Notify.Dup
		case ev.SlowHost != nil:
			if spec.HostSlowdown == nil {
				spec.HostSlowdown = make([]float64, s.Fleet.Procs)
				for i := range spec.HostSlowdown {
					spec.HostSlowdown[i] = 1
				}
			}
			spec.HostSlowdown[ev.SlowHost.Rank] = ev.SlowHost.Factor
		}
	}
	spec.CheckInvariants = boolOr(s.Assert.Invariants, true)

	c := Compiled{
		Scenario:       s,
		Path:           path,
		Spec:           spec,
		Baseline:       baseline,
		CheckAnswer:    boolOr(s.Assert.AnswerMatchesBaseline, true),
		MaxRecoverySec: s.Assert.MaxRecoveryModeledSec,
		MinKills:       countKills(s),
	}
	if s.Assert.MinKillsApplied != nil {
		c.MinKills = *s.Assert.MinKillsApplied
	}
	return c
}

// The schema's enumerations, each in one table: what the validator
// accepts, what Compile lowers it to, and (apps) what the chaos generator
// names a sweep after.
var (
	apps = map[string]experiments.AppKind{
		"gps": experiments.GPS, "water": experiments.Water, "barnes": experiments.Barnes,
	}
	policies = map[string]ft.Policy{
		"": ft.PolicySAM, "sam": ft.PolicySAM, "naive": ft.PolicyNaive, "off": ft.PolicyOff,
	}
	placements = map[string]ckptstore.Kind{
		"": ckptstore.Ring, "ring": ckptstore.Ring, "affinity": ckptstore.Affinity, "spread": ckptstore.Spread,
	}
)

// lower maps a validated enum value through its table.
func lower[V any](table map[string]V, what, value string) V {
	v, ok := table[value]
	if !ok {
		panic("scenario: Compile on unvalidated " + what + " " + value)
	}
	return v
}
