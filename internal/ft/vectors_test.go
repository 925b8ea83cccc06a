package ft

import (
	"testing"
	"testing/quick"
)

func TestTickMonotonic(t *testing.T) {
	c := NewClocks(0, 3)
	if c.Now() != 0 {
		t.Fatalf("initial time %d", c.Now())
	}
	for i := int64(1); i <= 5; i++ {
		if got := c.Tick(); got != i {
			t.Fatalf("Tick #%d = %d", i, got)
		}
	}
}

func TestOnCheckpointCopiesT(t *testing.T) {
	c := NewClocks(1, 3)
	c.Tick()
	c.Absorb(Stamp{From: 0, T: []int64{7, 0, 0}})
	c.OnCheckpoint()
	if c.C[0] != 7 || c.C[1] != 2 {
		t.Fatalf("C = %v", c.C)
	}
	if c.D[1] != c.C[1] {
		t.Fatalf("self D entry %d, want %d", c.D[1], c.C[1])
	}
}

func TestStampAbsorbUpdatesD(t *testing.T) {
	// Process 0 checkpoints after seeing time 5 on process 1; its next
	// message to 1 must convince 1 that 0 has checkpointed since 1's time
	// was 5.
	p0 := NewClocks(0, 2)
	p1 := NewClocks(1, 2)
	for i := 0; i < 5; i++ {
		p1.Tick()
	}
	// 1 sends an FT message to 0.
	p0.Absorb(p1.StampFor(0))
	if p0.T[1] != 5 {
		t.Fatalf("p0.T[1] = %d", p0.T[1])
	}
	p0.OnCheckpoint()
	// 0 replies; 1 learns c_{0,1} = 5.
	p1.Absorb(p0.StampFor(1))
	if p1.D[0] != 5 {
		t.Fatalf("p1.D[0] = %d, want 5", p1.D[0])
	}
	// An object marked freeable at time 5 on p1 can be freed (0 has
	// checkpointed with knowledge of time 5), but not one marked at 6.
	if lag := p1.Laggards(5); len(lag) != 0 {
		t.Fatalf("laggards(5) = %v", lag)
	}
	if lag := p1.Laggards(6); len(lag) != 1 || lag[0] != 0 {
		t.Fatalf("laggards(6) = %v", lag)
	}
}

func TestAbsorbNeverLowersEntries(t *testing.T) {
	c := NewClocks(0, 3)
	c.Absorb(Stamp{From: 1, T: []int64{0, 9, 4}, CForDst: 6})
	c.Absorb(Stamp{From: 1, T: []int64{0, 2, 1}, CForDst: 3})
	if c.T[1] != 9 || c.T[2] != 4 {
		t.Fatalf("T = %v", c.T)
	}
	if c.D[1] != 6 {
		t.Fatalf("D[1] = %d", c.D[1])
	}
}

func TestAbsorbIgnoresOwnAndBogusEntries(t *testing.T) {
	c := NewClocks(0, 2)
	c.Tick() // own time 1
	c.Absorb(Stamp{From: 0, T: []int64{99, 99}, CForDst: 99})
	if c.Now() != 1 || c.D[0] != 0 {
		t.Fatal("absorbed a stamp from self")
	}
	c.Absorb(Stamp{From: 7, T: []int64{99, 99}})
	c.Absorb(Stamp{From: -1, T: []int64{99, 99}})
	if c.T[1] != 0 {
		t.Fatal("absorbed a stamp from out-of-range rank")
	}
	// A stamp whose T vector is longer than ours must not panic.
	c.Absorb(Stamp{From: 1, T: []int64{1, 2, 3, 4, 5}})
	if c.T[1] != 2 {
		t.Fatalf("T = %v", c.T)
	}
}

func TestSelfCovered(t *testing.T) {
	c := NewClocks(0, 2)
	c.Tick() // t=1; mark freeable at f=1
	if c.SelfCovered(1) {
		t.Fatal("covered before any checkpoint")
	}
	c.OnCheckpoint() // t=2, C[0]=2
	if !c.SelfCovered(1) {
		t.Fatal("not covered after checkpoint at t=2")
	}
	if c.SelfCovered(2) {
		t.Fatal("f=2 covered by checkpoint at t=2 (needs strictly later)")
	}
}

func TestNeedsForcedCheckpoint(t *testing.T) {
	j := NewClocks(1, 2)
	// j has never checkpointed: a request for coverage of f=3 forces one.
	if !j.NeedsForcedCheckpoint(0, 3) {
		t.Fatal("no forced checkpoint although C[0]=0 < 3")
	}
	// After absorbing 0's time and checkpointing, coverage is satisfied.
	j.Absorb(Stamp{From: 0, T: []int64{5, 0}})
	j.OnCheckpoint()
	if j.NeedsForcedCheckpoint(0, 3) {
		t.Fatalf("forced checkpoint although C[0]=%d >= 3", j.C[0])
	}
	if j.NeedsForcedCheckpoint(-1, 3) || j.NeedsForcedCheckpoint(9, 3) {
		t.Fatal("out-of-range origin treated as needing checkpoint")
	}
}

func TestForceCheckpointRoundTripFreesObject(t *testing.T) {
	// Full §4.3 scenario: p0 owns an object, p1 accessed it, p0 wants to
	// free it but p1 has not checkpointed since.
	p0 := NewClocks(0, 2)
	p1 := NewClocks(1, 2)

	f := p0.Tick() // marked freeable at f

	if lag := p0.Laggards(f); len(lag) != 1 || lag[0] != 1 {
		t.Fatalf("laggards = %v", lag)
	}
	// p0 sends force-checkpoint(f) to p1 with its stamp.
	p1.Absorb(p0.StampFor(1))
	if !p1.NeedsForcedCheckpoint(0, f) {
		t.Fatal("p1 skipped the forced checkpoint")
	}
	p1.OnCheckpoint()
	// p1 replies with its stamp; c_{1,0} is now >= f.
	p0.Absorb(p1.StampFor(0))
	if lag := p0.Laggards(f); len(lag) != 0 {
		t.Fatalf("laggards after forced checkpoint = %v", lag)
	}
	p0.OnCheckpoint() // p0's own coverage
	if !p0.SelfCovered(f) {
		t.Fatal("self not covered")
	}
}

func TestSnapshotRestore(t *testing.T) {
	c := NewClocks(0, 3)
	c.Tick()
	c.Absorb(Stamp{From: 2, T: []int64{0, 0, 8}, CForDst: 4})
	c.OnCheckpoint()
	tt, cc, dd := c.Snapshot()

	fresh := NewClocks(0, 3)
	fresh.Restore(tt, cc, dd)
	t2, c2, d2 := fresh.Snapshot()
	for i := range tt {
		if tt[i] != t2[i] || cc[i] != c2[i] || dd[i] != d2[i] {
			t.Fatalf("restore mismatch at %d: %v/%v %v/%v %v/%v", i, tt, t2, cc, c2, dd, d2)
		}
	}
	// Snapshot must be a copy, not an alias.
	tt[0] = 999
	if c.T[0] == 999 {
		t.Fatal("Snapshot aliases internal state")
	}
}

func TestMergeAfterIncarnationBump(t *testing.T) {
	// A recovered incarnation restores its vectors from its last private-
	// state checkpoint — older than what the survivors have since seen —
	// and must catch up purely by absorbing their piggybacks, without ever
	// lowering an entry or touching its own slot.
	p0 := NewClocks(0, 3)
	p1 := NewClocks(1, 3)

	p0.Tick()
	p0.OnCheckpoint() // t=2; this is what recovery will restore
	tt, cc, dd := p0.Snapshot()

	// Pre-crash, p0 runs further and the cluster moves on without it.
	p0.Tick()
	for i := 0; i < 6; i++ {
		p1.Tick()
	}
	p1.OnCheckpoint()

	// Crash + restore: the new incarnation resumes at the checkpointed
	// time, which is behind both its own pre-crash time and p1's view.
	r := NewClocks(0, 3)
	r.Restore(tt, cc, dd)
	if r.Now() != 2 {
		t.Fatalf("restored time %d, want 2", r.Now())
	}

	// First post-recovery message from p1 carries p1's whole history. The
	// bump to p1's entries must be monotone and the self entry untouched:
	// only replay, not merging, may advance the incarnation's own clock.
	r.Absorb(p1.StampFor(0))
	if r.T[1] != 7 {
		t.Fatalf("r.T[1] = %d, want 7", r.T[1])
	}
	if r.Now() != 2 {
		t.Fatalf("merge advanced own time to %d", r.Now())
	}
	if r.D[1] != 0 {
		// p1 never saw p0 before the crash, so its checkpoint cannot promise
		// coverage of any p0 time: the stamp's c_{1,0} is 0.
		t.Fatalf("r.D[1] = %d, want 0", r.D[1])
	}

	// A delayed pre-crash stamp (older T) arriving after the catch-up must
	// be a no-op, not a rollback.
	r.Absorb(Stamp{From: 1, T: []int64{0, 3, 0}, CForDst: 0})
	if r.T[1] != 7 {
		t.Fatalf("stale stamp lowered T[1] to %d", r.T[1])
	}
}

func TestPiggybackOntoNeverCommunicatedProcess(t *testing.T) {
	// p2 has never exchanged a message with p0: every p0 entry about p2 is
	// still zero. The very first stamp must establish state from nothing,
	// and until it arrives p2 is a laggard for any positive free time.
	p0 := NewClocks(0, 3)
	f := p0.Tick()

	lag := p0.Laggards(f)
	if len(lag) != 2 {
		t.Fatalf("laggards before any communication = %v", lag)
	}

	// p2's first-ever message: it has ticked to 4, checkpointed, and its
	// checkpoint saw nothing of p0 (c_{2,0} = 0).
	p2 := NewClocks(2, 3)
	for i := 0; i < 3; i++ {
		p2.Tick()
	}
	p2.OnCheckpoint()
	p0.Absorb(p2.StampFor(0))
	if p0.T[2] != 4 {
		t.Fatalf("p0.T[2] = %d, want 4", p0.T[2])
	}
	if p0.D[2] != 0 {
		t.Fatalf("p0.D[2] = %d: a checkpoint that never saw p0 cannot cover its time", p0.D[2])
	}
	// p2 is still a laggard: its checkpoint predates learning p0's time f.
	if lag := p0.Laggards(f); len(lag) != 2 {
		t.Fatalf("laggards after first contact = %v", lag)
	}

	// Only after p2 checkpoints with knowledge of f does coverage arrive.
	p2.Absorb(p0.StampFor(2))
	p2.OnCheckpoint()
	p0.Absorb(p2.StampFor(0))
	if p0.D[2] < f {
		t.Fatalf("p0.D[2] = %d after covered checkpoint, want >= %d", p0.D[2], f)
	}
	for _, j := range p0.Laggards(f) {
		if j == 2 {
			t.Fatal("p2 still a laggard after covered checkpoint")
		}
	}
}

func TestQuickAbsorbMonotone(t *testing.T) {
	// Property: after absorbing any sequence of stamps, every T/D entry is
	// >= its previous value and equals the max seen.
	f := func(times []int64, cs []int64) bool {
		c := NewClocks(0, 2)
		var maxT, maxC int64
		for i := range times {
			tv := times[i]
			if tv < 0 {
				tv = -tv
			}
			var cv int64
			if i < len(cs) {
				cv = cs[i]
				if cv < 0 {
					cv = -cv
				}
			}
			c.Absorb(Stamp{From: 1, T: []int64{0, tv}, CForDst: cv})
			if tv > maxT {
				maxT = tv
			}
			if cv > maxC {
				maxC = cv
			}
			if c.T[1] != maxT || c.D[1] != maxC {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTaintPolicySAM(t *testing.T) {
	ta := NewTaint(PolicySAM)
	if ta.Tainted() {
		t.Fatal("fresh tracker tainted")
	}
	ta.OnNonReexecutable()
	if !ta.Tainted() {
		t.Fatal("not tainted after non-reexecutable op")
	}
	ta.OnCheckpoint()
	if ta.Tainted() {
		t.Fatal("tainted after checkpoint")
	}
}

func TestTaintPolicyNaive(t *testing.T) {
	ta := NewTaint(PolicyNaive)
	if !ta.Tainted() {
		t.Fatal("naive policy must always be tainted")
	}
	ta.OnCheckpoint()
	if !ta.Tainted() {
		t.Fatal("naive policy cleared by checkpoint")
	}
}

func TestPolicyString(t *testing.T) {
	for p, want := range map[Policy]string{
		PolicyOff: "off", PolicySAM: "sam", PolicyNaive: "naive", Policy(99): "unknown",
	} {
		if p.String() != want {
			t.Fatalf("%d.String() = %q", p, p.String())
		}
	}
}

// TestLaggardPredicateMatchesLaggards: OthersCovered(f) is true exactly
// when Laggards(f) is empty, whatever the D vector, the own rank's entry
// included (it never counts).
func TestLaggardPredicateMatchesLaggards(t *testing.T) {
	for _, tc := range []struct {
		name string
		self int
		d    []int64
		f    int64
		want bool
	}{
		{"alone", 0, []int64{0}, 5, true},
		{"all covered", 1, []int64{5, 0, 7}, 5, true},
		{"one short", 1, []int64{5, 0, 4}, 5, false},
		{"all short", 0, []int64{9, 1, 2, 3}, 4, false},
		{"own entry ignored", 2, []int64{6, 6, 0}, 6, true},
		{"zero mark", 0, []int64{0, 0}, 0, true},
		{"first peer short", 3, []int64{2, 3, 3, 0}, 3, false},
	} {
		c := NewClocks(tc.self, len(tc.d))
		copy(c.D, tc.d)
		if got := c.OthersCovered(tc.f); got != tc.want {
			t.Errorf("%s: OthersCovered(%d) = %v, want %v", tc.name, tc.f, got, tc.want)
		}
		if got, lag := c.OthersCovered(tc.f), c.Laggards(tc.f); got != (len(lag) == 0) {
			t.Errorf("%s: OthersCovered(%d) = %v but Laggards = %v", tc.name, tc.f, got, lag)
		}
		if n := testing.AllocsPerRun(10, func() { c.OthersCovered(tc.f) }); n != 0 {
			t.Errorf("%s: OthersCovered made %.0f allocs", tc.name, n)
		}
	}
}
