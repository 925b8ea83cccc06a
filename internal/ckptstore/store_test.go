package ckptstore

import (
	"reflect"
	"testing"
)

func newTestStore(policy Kind, n, degree int) *Store {
	return NewStore(Config{Rank: 0, N: n, Degree: degree, Policy: policy})
}

func TestStoreWant(t *testing.T) {
	if w := newTestStore(Ring, 4, 2).Want(); w != 2 {
		t.Errorf("Want = %d, want 2", w)
	}
	// Degree clamped by cluster size.
	if w := newTestStore(Ring, 2, 3).Want(); w != 1 {
		t.Errorf("Want (n=2, degree=3) = %d, want 1", w)
	}
}

// TestSurvivableRule pins the copies a covered object wants and the one
// failure budget the validator and the chaos clamp share.
func TestSurvivableRule(t *testing.T) {
	cases := []struct{ n, degree, want, survivable int }{
		{4, 2, 2, 2},
		{2, 3, 1, 1}, // degree clamped by cluster size
		{1, 1, 0, 1}, // nobody to copy to; the budget is still one failure
		{5, 2, 2, 2}, // the degree, not the cluster, binds
	}
	for _, c := range cases {
		if got := newTestStore(Ring, c.n, c.degree).Want(); got != c.want {
			t.Errorf("%+v: Want = %d, want %d", c, got, c.want)
		}
		if got := Survivable(c.n, c.degree); got != c.survivable {
			t.Errorf("%+v: Survivable = %d, want %d", c, got, c.survivable)
		}
	}
}

func TestStoreLedgerLifecycle(t *testing.T) {
	s := newTestStore(Ring, 4, 2)
	const name = 42
	s.Record(name, 3, []int{1, 2})
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
	if len(plan) != 1 || plan[0] == 0 || plan[0] == 2 {
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
	s := newTestStore(Ring, 5, 2)
	const name = 7
	s.Record(name, 1, []int{1, 2})
	s.DropRank(1)
	s.DropRank(2)
	dead := map[int]bool{3: true}
	plan := s.RepairPlan(name, 0, func(r int) bool { return dead[r] })
	if len(plan) != 2 {
		t.Fatalf("RepairPlan = %v, want 2 holders", plan)
	}
	for _, r := range plan {
		if r == 0 || r == 3 {
			t.Fatalf("RepairPlan = %v includes owner or excluded rank", plan)
		}
	}
}

func TestStoreNamesSorted(t *testing.T) {
	s := newTestStore(Ring, 4, 2)
	for _, n := range []uint64{9, 3, 7, 1} {
		s.Record(n, 1, []int{1})
	}
	if got := s.Names(); !reflect.DeepEqual(got, []uint64{1, 3, 7, 9}) {
		t.Fatalf("Names = %v", got)
	}
}
