package ckptstore

import (
	"reflect"
	"testing"
)

func newTestStore(policy Kind, n, degree int, ec ECParams) *Store {
	return NewStore(Config{Rank: 0, N: n, Degree: degree, Policy: policy, EC: ec})
}

func TestStoreWant(t *testing.T) {
	if w := newTestStore(Ring, 4, 2, ECParams{}).Want(); w != 2 {
		t.Errorf("Want = %d, want 2", w)
	}
	// Degree clamped by cluster size.
	if w := newTestStore(Ring, 2, 3, ECParams{}).Want(); w != 1 {
		t.Errorf("Want (n=2, degree=3) = %d, want 1", w)
	}
	// EC wants all k+m shards placed.
	if w := newTestStore(Ring, 5, 2, ECParams{K: 2, M: 2}).Want(); w != 4 {
		t.Errorf("Want (EC 2,2) = %d, want 4", w)
	}
	// Infeasible EC (k+m > n-1) falls back to full replication.
	s := newTestStore(Ring, 4, 2, ECParams{K: 2, M: 2})
	if s.EC().Enabled() {
		t.Error("EC(2,2) on n=4 should be dropped (needs 4 non-owner ranks, have 3)")
	}
	if w := s.Want(); w != 2 {
		t.Errorf("Want after EC fallback = %d, want 2", w)
	}
}

// TestSurvivableRule pins the one rule the store, the chaos budget, the
// scenario validator and ftbench's survivable column share.
func TestSurvivableRule(t *testing.T) {
	cases := []struct {
		n, degree        int
		ec               ECParams
		feasible         bool
		want, survivable int
	}{
		{4, 2, ECParams{}, false, 2, 2},
		{2, 3, ECParams{}, false, 1, 1},           // degree clamped by cluster size
		{1, 1, ECParams{}, false, 0, 1},           // nobody to copy to; the budget is still one failure
		{5, 2, ECParams{K: 2, M: 2}, true, 4, 2},  // k+m shards wanted, m losses survivable
		{5, 2, ECParams{K: 3, M: 1}, true, 4, 1},  // a code can survive fewer failures than the degree
		{4, 2, ECParams{K: 2, M: 2}, false, 2, 2}, // k+m > n-1: full replication applies
		{9, 2, ECParams{K: 2}, false, 2, 2},       // half-configured
	}
	for _, c := range cases {
		if got := c.ec.FeasibleFor(c.n); got != c.feasible {
			t.Errorf("%+v: FeasibleFor = %v, want %v", c, got, c.feasible)
		}
		if got := WantCopies(c.n, c.degree, c.ec); got != c.want {
			t.Errorf("%+v: WantCopies = %d, want %d", c, got, c.want)
		}
		if got := Survivable(c.n, c.degree, c.ec); got != c.survivable {
			t.Errorf("%+v: Survivable = %d, want %d", c, got, c.survivable)
		}
	}
}

func TestStoreLedgerLifecycle(t *testing.T) {
	s := newTestStore(Ring, 4, 2, ECParams{})
	const name = 42
	s.Record(name, 3, []Holder{{Rank: 1}, {Rank: 2}})
	if got := s.HolderRanks(name); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Fatalf("HolderRanks = %v", got)
	}
	if c := s.Coverage(name); c != 2 {
		t.Fatalf("Coverage = %d, want 2", c)
	}
	if plan := s.RepairPlan(name, 0, nil); len(plan) != 0 {
		t.Fatalf("RepairPlan on full coverage = %v, want empty", plan)
	}

	// Rank 1 dies: its copy is gone, repair must pick a fresh rank.
	affected := s.DropRank(1)
	if !reflect.DeepEqual(affected, []uint64{name}) {
		t.Fatalf("DropRank affected = %v", affected)
	}
	if c := s.Coverage(name); c != 1 {
		t.Fatalf("Coverage after drop = %d, want 1", c)
	}
	plan := s.RepairPlan(name, 0, nil)
	if len(plan) != 1 || plan[0].Rank == 0 || plan[0].Rank == 2 {
		t.Fatalf("RepairPlan = %v, want one holder that is neither owner 0 nor existing holder 2", plan)
	}
	s.AddHolder(name, 3, plan[0])
	if c := s.Coverage(name); c != 2 {
		t.Fatalf("Coverage after repair = %d, want 2", c)
	}
	// AddHolder is idempotent per rank.
	s.AddHolder(name, 3, plan[0])
	if c := s.Coverage(name); c != 2 {
		t.Fatalf("Coverage after duplicate AddHolder = %d, want 2", c)
	}

	s.Forget(name)
	if _, ok := s.Lookup(name); ok {
		t.Fatal("Lookup after Forget succeeded")
	}
	if got := s.DropRank(2); len(got) != 0 {
		t.Fatalf("DropRank on empty ledger = %v", got)
	}
}

func TestStoreRepairPlanExcludes(t *testing.T) {
	s := newTestStore(Ring, 5, 2, ECParams{})
	const name = 7
	s.Record(name, 1, []Holder{{Rank: 1}, {Rank: 2}})
	s.DropRank(1)
	s.DropRank(2)
	dead := map[int]bool{3: true}
	plan := s.RepairPlan(name, 0, func(r int) bool { return dead[r] })
	if len(plan) != 2 {
		t.Fatalf("RepairPlan = %v, want 2 holders", plan)
	}
	for _, h := range plan {
		if h.Rank == 0 || h.Rank == 3 {
			t.Fatalf("RepairPlan = %v includes owner or excluded rank", plan)
		}
	}
}

func TestStoreRepairPlanEC(t *testing.T) {
	s := newTestStore(Spread, 6, 2, ECParams{K: 3, M: 2})
	const name = 99
	ranks := s.Plan(name, 0)
	if len(ranks) != 5 {
		t.Fatalf("Plan under EC(3,2) = %v, want 5 ranks", ranks)
	}
	hs := make([]Holder, len(ranks))
	for i, r := range ranks {
		hs[i] = Holder{Rank: r, Shard: i + 1}
	}
	s.Record(name, 2, hs)
	if c := s.Coverage(name); c != 5 {
		t.Fatalf("EC Coverage = %d, want 5", c)
	}

	// Lose two shards; the repair plan must re-create exactly those shard
	// indices on ranks not already holding one.
	s.DropRank(hs[1].Rank)
	s.DropRank(hs[3].Rank)
	plan := s.RepairPlan(name, 0, nil)
	if len(plan) != 2 {
		t.Fatalf("EC RepairPlan = %v, want 2 shards", plan)
	}
	wantIdx := map[int]bool{2: true, 4: true}
	holding := map[int]bool{0: true, hs[0].Rank: true, hs[2].Rank: true, hs[4].Rank: true}
	for _, h := range plan {
		if !wantIdx[h.Shard] {
			t.Fatalf("EC RepairPlan rebuilt shard %d, want shards 2 and 4: %v", h.Shard, plan)
		}
		if holding[h.Rank] {
			t.Fatalf("EC RepairPlan placed shard on owner or existing holder: %v", plan)
		}
		delete(wantIdx, h.Shard)
	}
}

func TestStoreNamesSorted(t *testing.T) {
	s := newTestStore(Ring, 4, 2, ECParams{})
	for _, n := range []uint64{9, 3, 7, 1} {
		s.Record(n, 1, []Holder{{Rank: 1}})
	}
	if got := s.Names(); !reflect.DeepEqual(got, []uint64{1, 3, 7, 9}) {
		t.Fatalf("Names = %v", got)
	}
}
