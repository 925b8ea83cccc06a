package ft

import (
	"testing"

	"samft/internal/xrand"
)

// copyDelta carries a DeltaStamp across the "wire": the stamp's slices
// alias the sender's scratch buffers, so a real transport serializes them
// before the sender builds another stamp. The copy here plays that role.
func copyDelta(s DeltaStamp) DeltaStamp {
	s.Full = append([]int64(nil), s.Full...)
	s.Idx = append([]int64(nil), s.Idx...)
	s.Val = append([]int64(nil), s.Val...)
	return s
}

// fullStamp is §4.3's piggyback as the paper sends it: the sender's whole
// T vector, every time.
func fullStamp(c *Clocks, dst int) DeltaStamp {
	return DeltaStamp{From: c.self, Full: append([]int64(nil), c.T...), CForDst: c.C[dst]}
}

func TestDeltaFirstContactSendsFullVector(t *testing.T) {
	c := NewClocks(0, 4)
	c.Tick()
	c.Tick()
	s := c.DeltaStampFor(2)
	if s.Full == nil || len(s.Idx) != 0 {
		t.Fatalf("first stamp to 2 = %+v, want full vector", s)
	}
	if s.Full[0] != 2 {
		t.Fatalf("full vector = %v, want T with self=2", s.Full)
	}

	// Second stamp to the same destination with nothing changed: an empty
	// delta, not a full vector.
	s = copyDelta(c.DeltaStampFor(2))
	if s.Full != nil || len(s.Idx) != 0 {
		t.Fatalf("unchanged stamp = %+v, want empty delta", s)
	}

	// After one tick, the delta names exactly the self entry.
	c.Tick()
	s = c.DeltaStampFor(2)
	if s.Full != nil || len(s.Idx) != 1 || s.Idx[0] != 0 || s.Val[0] != 3 {
		t.Fatalf("post-tick delta = %+v, want {0:3}", s)
	}
}

func TestDeltaPerDestinationHighWater(t *testing.T) {
	c := NewClocks(0, 3)
	c.Tick()
	c.DeltaStampFor(1) // full to 1
	c.Tick()
	// 2 never heard from us: full. 1 did: delta with just the new tick.
	if s := c.DeltaStampFor(2); s.Full == nil {
		t.Fatalf("first stamp to 2 = %+v, want full", s)
	}
	if s := c.DeltaStampFor(1); s.Full != nil || len(s.Idx) != 1 || s.Val[0] != 2 {
		t.Fatalf("stamp to 1 = %+v, want delta {0:2}", s)
	}
}

func TestDeltaResetPeerForcesFullVector(t *testing.T) {
	c := NewClocks(0, 3)
	c.Tick()
	c.DeltaStampFor(1)
	c.ResetPeer(1)
	s := c.DeltaStampFor(1)
	if s.Full == nil {
		t.Fatalf("post-reset stamp = %+v, want full vector", s)
	}
	// Reset of an out-of-range rank is a safe no-op.
	c.ResetPeer(-1)
	c.ResetPeer(99)
}

func TestDeltaNeverCommunicatedPeerEntry(t *testing.T) {
	// Rank 3's time reaches us indirectly (via a stamp from 1) even though
	// we never exchanged a message with 3; the next deltas we send must
	// carry 3's entry.
	c := NewClocks(0, 4)
	c.Tick()
	c.DeltaStampFor(2)
	c.AbsorbDelta(DeltaStamp{From: 1, Idx: []int64{3}, Val: []int64{7}, CForDst: 0})
	s := c.DeltaStampFor(2)
	if s.Full != nil || len(s.Idx) != 1 || s.Idx[0] != 3 || s.Val[0] != 7 {
		t.Fatalf("delta after indirect learn = %+v, want {3:7}", s)
	}
}

func TestDeltaRestoreForcesFullVectors(t *testing.T) {
	c := NewClocks(0, 3)
	c.Tick()
	c.DeltaStampFor(1)
	tt, cc, dd := c.Snapshot()

	r := NewClocks(0, 3)
	r.Restore(tt, cc, dd)
	if s := r.DeltaStampFor(1); s.Full == nil {
		t.Fatalf("post-restore stamp = %+v, want full vector", s)
	}

	// Restore on a clock that had already stamped peers also re-fulls.
	c.Restore(tt, cc, dd)
	if s := c.DeltaStampFor(1); s.Full == nil {
		t.Fatalf("restore did not reset high-water marks")
	}
}

func TestDeltaAbsorbIgnoresBogusEntries(t *testing.T) {
	c := NewClocks(1, 3)
	c.AbsorbDelta(DeltaStamp{From: 0, Idx: []int64{-1, 99, 1, 2}, Val: []int64{5, 5, 5, 5}, CForDst: 4})
	if c.T[1] != 0 {
		t.Fatalf("own entry absorbed: T=%v", c.T)
	}
	if c.T[2] != 5 {
		t.Fatalf("valid entry dropped: T=%v", c.T)
	}
	if c.D[0] != 4 {
		t.Fatalf("D[0] = %d, want 4", c.D[0])
	}
	// Senders out of range or self are ignored wholesale.
	c.AbsorbDelta(DeltaStamp{From: 1, Idx: []int64{0}, Val: []int64{9}})
	c.AbsorbDelta(DeltaStamp{From: -1, Idx: []int64{0}, Val: []int64{9}})
	c.AbsorbDelta(DeltaStamp{From: 7, Idx: []int64{0}, Val: []int64{9}})
	if c.T[0] != 0 {
		t.Fatalf("bogus sender absorbed: T=%v", c.T)
	}
}

// TestDeltaEquivalentToFullStamps drives two parallel worlds with the
// same seeded schedule of ticks, checkpoints, messages, and restarts —
// one piggybacking full §4.3 stamps, the other delta stamps — and checks
// the T/C/D vectors agree everywhere after every event.
func TestDeltaEquivalentToFullStamps(t *testing.T) {
	const n = 6
	for seed := uint64(1); seed <= 5; seed++ {
		rng := xrand.New(seed)
		full := make([]*Clocks, n)
		delta := make([]*Clocks, n)
		for i := range full {
			full[i] = NewClocks(i, n)
			delta[i] = NewClocks(i, n)
		}
		check := func(step int) {
			t.Helper()
			for i := range full {
				ft, fc, fd := full[i].Snapshot()
				dt, dc, dd := delta[i].Snapshot()
				for j := range ft {
					if ft[j] != dt[j] || fc[j] != dc[j] || fd[j] != dd[j] {
						t.Fatalf("seed %d step %d: clocks diverge at rank %d:\nfull  T=%v C=%v D=%v\ndelta T=%v C=%v D=%v",
							seed, step, i, ft, fc, fd, dt, dc, dd)
					}
				}
			}
		}
		for step := 0; step < 400; step++ {
			switch rng.Intn(10) {
			case 0: // tick (a free of an owned object)
				i := rng.Intn(n)
				full[i].Tick()
				delta[i].Tick()
			case 1: // checkpoint
				i := rng.Intn(n)
				checkpoint(full[i])
				checkpoint(delta[i])
			case 2: // restart: restore from own snapshot, peers reset
				i := rng.Intn(n)
				ft, fc, fd := full[i].Snapshot()
				full[i].Restore(ft, fc, fd)
				dt, dc, dd := delta[i].Snapshot()
				delta[i].Restore(dt, dc, dd)
				for j := range delta {
					if j != i {
						delta[j].ResetPeer(i)
					}
				}
			default: // message i -> j with piggyback
				i, j := rng.Intn(n), rng.Intn(n)
				if i == j {
					continue
				}
				full[j].AbsorbDelta(fullStamp(full[i], j))
				delta[j].AbsorbDelta(copyDelta(delta[i].DeltaStampFor(j)))
			}
			check(step)
		}
	}
}

// TestDeltaBytesStayFlat checks the scaling claim the encoding exists
// for: piggyback size tracks the rate of virtual-time *changes* (ticks
// happen at checkpoints and frees, a per-process-constant rate), not the
// process count. With a fixed global tick rate, the entries per message
// in an all-to-all exchange stay flat from 8 to 256 processes — where
// full §4.3 stamps would grow linearly.
func TestDeltaBytesStayFlat(t *testing.T) {
	const ticksPerRound = 4
	for _, n := range []int{8, 64, 256} {
		rng := xrand.New(uint64(n))
		cs := make([]*Clocks, n)
		for i := range cs {
			cs[i] = NewClocks(i, n)
		}
		exchange := func() (entries, msgs int) {
			for i := range cs {
				for j := range cs {
					if i == j {
						continue
					}
					s := copyDelta(cs[i].DeltaStampFor(j))
					entries += len(s.Idx) + len(s.Full)
					msgs++
					cs[j].AbsorbDelta(s)
				}
			}
			return
		}
		exchange() // warm up: first contacts carry full vectors
		entries, msgs := 0, 0
		for round := 0; round < 5; round++ {
			for k := 0; k < ticksPerRound; k++ {
				cs[rng.Intn(n)].Tick()
			}
			e, m := exchange()
			entries += e
			msgs += m
		}
		// Each tick is forwarded at most once per (learner, destination)
		// edge interval, so per-message entries are bounded by the tick
		// rate — independent of n. Full stamps would average n entries.
		if per := float64(entries) / float64(msgs); per > 2*ticksPerRound {
			t.Fatalf("n=%d: %.2f piggyback entries per message, want O(tick rate)", n, per)
		}
	}
}
