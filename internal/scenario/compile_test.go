package scenario

import (
	"reflect"
	"testing"

	"samft/internal/ckptstore"
	"samft/internal/cluster"
	"samft/internal/experiments"
	"samft/internal/ft"
	"samft/internal/netsim"
)

func mustLoad(t *testing.T, doc string) *Scenario {
	t.Helper()
	s, err := Load([]byte(doc), "test.json")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	return s
}

func TestCompile(t *testing.T) {
	s := mustLoad(t, `{
		"name": "full",
		"fleet": {
			"procs": 5,
			"app": "water",
			"scale": "paper",
			"ft": { "policy": "sam", "degree": 2, "placement": "spread" }
		},
		"seed": 99,
		"events": [
			{ "kill": { "rank": 1, "at_step": 2 } },
			{ "kill": { "rank": 1, "on_recovery_of": 1, "on_recovery_count": 1 } },
			{ "kill": { "rank": 3, "at_modeled_sec": 0.01 } },
			{ "jitter": { "us": 80 } },
			{ "notify": { "drop": true, "dup": true } },
			{ "slow_host": { "rank": 4, "factor": 2.5 } }
		],
		"assert": { "max_recovery_modeled_sec": 4, "min_kills_applied": 2 }
	}`)
	c := Compile(s, "test.json")

	want := experiments.Spec{App: experiments.Water, Scale: experiments.Paper, CheckInvariants: true, Config: cluster.Config{
		N: 5, Policy: ft.PolicySAM, Degree: 2, Placement: ckptstore.Spread,
		Kills: []cluster.KillEvent{
			{Rank: 1, Step: 2},
			{Rank: 1, OnRecovery: true, RecoveryOf: 1, RecoveryCount: 1},
			{Rank: 3, AtModeledSec: 0.01},
		},
		FaultPlan:    netsim.FaultPlan{ChaosSeed: 99, JitterUS: 80, NotifyDrop: true, NotifyDup: true},
		HostSlowdown: []float64{0, 0, 0, 0, 2.5},
	}}
	if !reflect.DeepEqual(c.Spec, want) {
		t.Errorf("Spec:\n got %+v\nwant %+v", c.Spec, want)
	}
	base := want
	base.Kills = nil
	base.FaultPlan = netsim.FaultPlan{}
	base.HostSlowdown = nil
	base.CheckInvariants = false
	if !reflect.DeepEqual(c.Baseline, base) {
		t.Errorf("Baseline:\n got %+v\nwant %+v", c.Baseline, base)
	}
	if !c.CheckAnswer || c.MaxRecoverySec != 4 || c.MinKills != 2 {
		t.Errorf("assertions: CheckAnswer=%v MaxRecoverySec=%v MinKills=%v", c.CheckAnswer, c.MaxRecoverySec, c.MinKills)
	}
}

func TestCompileDefaults(t *testing.T) {
	s := mustLoad(t, `{
		"name": "defaults",
		"fleet": { "procs": 4, "app": "gps" },
		"events": [ { "kill": { "rank": 2, "at_step": 1 } } ]
	}`)
	c := Compile(s, "")
	if c.Spec.Degree != defaultDegree {
		t.Errorf("Degree = %d, want default %d", c.Spec.Degree, defaultDegree)
	}
	if c.Spec.Policy != ft.PolicySAM || c.Spec.Placement != ckptstore.Ring {
		t.Errorf("policy/placement defaults: %v %v", c.Spec.Policy, c.Spec.Placement)
	}
	if !c.CheckAnswer || !c.Spec.CheckInvariants {
		t.Error("core assertions must default on")
	}
	if c.MinKills != 1 {
		t.Errorf("MinKills = %d, want the schedule's 1 kill event", c.MinKills)
	}
	if c.Spec.HostSlowdown != nil {
		t.Errorf("HostSlowdown = %v, want nil without slow_host events", c.Spec.HostSlowdown)
	}
}
