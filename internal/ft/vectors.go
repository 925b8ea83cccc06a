// Package ft contains the protocol logic of the paper's fault-tolerance
// method, separated from the SAM runtime that wires it into messaging:
//
//   - the virtual-time vectors of §4.3 (T_i, C_i, D_i) that let a process
//     decide when a freeable main copy can really be reclaimed without
//     extra messages, plus the force-checkpoint fallback;
//   - the reproducibility policy of §4.1 that decides which sends must be
//     preceded by a checkpoint;
//   - the wire-level records a checkpoint preserves (§4.2) and the
//     replica-placement functions.
//
// Everything here is deterministic, single-threaded logic driven by one
// SAM process's runtime goroutine; it has no locks and no I/O of its own.
package ft

// Clocks implements the virtual-time bookkeeping of §4.3. Process i keeps:
//
//	T[i] — a vector of the last known virtual times of every process;
//	       T[self] is always the process's own current time.
//	C[i] — the value of T at this process's last checkpoint.
//	D[i] — D[j] is the last known value of c_{j,i}: a promise that
//	       process j has checkpointed since this process's time was D[j].
//
// The own virtual time is incremented at each checkpoint and at each free
// of an owned object. Every fault-tolerance message from j to i piggybacks
// T_j and c_{j,i}, delta-encoded (DeltaStampFor); AbsorbDelta merges them
// in.
type Clocks struct {
	self int
	T    []int64
	C    []int64
	D    []int64
	// delta is the sender-side bookkeeping for delta-encoded piggybacks
	// (see delta.go). Every T-entry change must go through delta.touch so
	// incremental stamps stay lossless.
	delta deltaState
}

// NewClocks returns the zeroed bookkeeping for process self of n.
func NewClocks(self, n int) *Clocks {
	return &Clocks{
		self:  self,
		T:     make([]int64, n),
		C:     make([]int64, n),
		D:     make([]int64, n),
		delta: newDeltaState(n),
	}
}

// Tick increments the process's virtual time and returns the new value.
// Call it at each checkpoint and at each free of an owned object.
func (c *Clocks) Tick() int64 {
	c.T[c.self]++
	c.delta.touch(c.self)
	return c.T[c.self]
}

// BeginCheckpoint ticks the clock and returns the new time, which
// identifies the checkpoint transaction.
func (c *Clocks) BeginCheckpoint() int64 { return c.Tick() }

// CommitCheckpoint records the transaction's completion: C becomes a copy
// of the current T and the self entry of D advances (the process has
// trivially checkpointed since every time up to its own checkpoint).
func (c *Clocks) CommitCheckpoint() {
	copy(c.C, c.T)
	c.D[c.self] = c.C[c.self]
}

// Laggards returns the processes j (never self) whose last known
// checkpoint does not cover our virtual time f: d_{self,j} < f. A main
// copy marked freeable at time f can be freed immediately iff the result
// is empty (and SelfCovered(f) holds); otherwise a force-checkpoint
// message must be sent to each returned process.
//
// Coverage is c_{j,i} >= f: the freeable mark ticks the owner's clock to
// f before the time becomes visible to anyone, so a checkpoint on j taken
// with knowledge of time f necessarily happened after the mark — and
// therefore after j's last access to the object. (The paper's prose says
// "greater than f" for the immediate path but its force-checkpoint rule
// "ensures that c_ji becomes greater than or equal to f" and then frees,
// which pins the condition at >=.)
func (c *Clocks) Laggards(f int64) []int {
	var out []int
	for j := range c.D {
		if j == c.self {
			continue
		}
		if c.D[j] < f {
			out = append(out, j)
		}
	}
	return out
}

// OthersCovered reports whether Laggards(f) is empty, without building it:
// every other process's last known checkpoint covers our virtual time f.
// It is the test retryFrees makes for every freeable main copy on every
// retry, so it allocates nothing.
func (c *Clocks) OthersCovered(f int64) bool {
	for j, d := range c.D {
		if j != c.self && d < f {
			return false
		}
	}
	return true
}

// SelfCovered reports whether this process has itself checkpointed since
// its virtual time was f. Recovery of this process replays from its own
// last checkpoint, so an object it used since then must survive too.
func (c *Clocks) SelfCovered(f int64) bool { return c.C[c.self] > f }

// NeedsForcedCheckpoint answers a force-checkpoint request from process
// origin asking for coverage of its time f: true if c_{self,origin} < f,
// i.e. our last checkpoint does not cover the requested time and we must
// checkpoint before replying.
func (c *Clocks) NeedsForcedCheckpoint(origin int, f int64) bool {
	if origin < 0 || origin >= len(c.C) {
		return false
	}
	return c.C[origin] < f
}

// Snapshot returns deep copies of the three vectors, for inclusion in the
// process's private-state checkpoint.
func (c *Clocks) Snapshot() (t, cc, d []int64) {
	t = append([]int64(nil), c.T...)
	cc = append([]int64(nil), c.C...)
	d = append([]int64(nil), c.D...)
	return
}

// Restore overwrites the vectors from a private-state checkpoint. The
// delta tracker treats this as everything-changed and forgets all
// high-water marks, so post-restore stamps are full vectors.
func (c *Clocks) Restore(t, cc, d []int64) {
	copy(c.T, t)
	copy(c.C, cc)
	copy(c.D, d)
	c.delta.touchAll()
}
