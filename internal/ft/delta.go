package ft

// Delta-encoded piggybacks. §4.3 attaches the sender's full T vector to
// every fault-tolerance message, which makes piggyback cost O(N) per
// message and dominates wire overhead as the process count grows. Almost
// all of that vector is redundant: between two consecutive messages to
// the same destination only the entries that changed in the interim carry
// information. DeltaStampFor therefore sends just those entries, and the
// receiver reconstructs the sender's intent losslessly because T-vector
// merging is a monotone max: applying the changed entries on top of what
// the destination already learned from this sender's earlier stamps
// yields exactly the state the full vector would have.
//
// Correctness leans on two properties of the fabric. First, delivery
// between a live (sender, destination) pair is reliable and FIFO, so the
// destination has seen every earlier stamp this sender addressed to it —
// the baseline a delta builds on. Second, the only way a stamp is lost is
// a process failure, and failures are followed by an incarnation switch
// that every survivor observes; ResetPeer hooks that switch and forces
// the next stamp to that destination back to a full vector. A recovering
// sender starts from fresh Clocks (the high-water state is deliberately
// not checkpointed), so its own first stamps are full vectors too.
//
// Building a delta is O(changed), not O(N): every T-entry update is
// versioned by a global counter and the entries are threaded on an
// intrusive recency list (most recently changed first). The per-
// destination high-water mark is the version as of the last stamp sent
// there, so the changed set is a prefix of the recency list and the walk
// stops at the first entry at or below the mark.

// DeltaStamp is the delta-encoded piggyback for one destination. Exactly
// one of Full or Idx/Val is meaningful: Full carries the sender's whole
// T vector (first contact with the destination, or the first stamp after
// its incarnation changed), Idx/Val carry the entries that changed since
// the previous stamp to the same destination. The slices alias reusable
// scratch buffers owned by the Clocks; callers must encode or copy the
// stamp before the next DeltaStampFor call.
type DeltaStamp struct {
	// From is the sender's process rank.
	From int
	// Full is the complete T vector, or nil for an incremental stamp.
	Full []int64
	// Idx/Val list the changed entries: T[Idx[k]] = Val[k].
	Idx []int64
	Val []int64
	// CForDst is c_{sender,receiver}: the receiver's virtual time as of
	// the sender's last checkpoint.
	CForDst int64
}

// deltaState is the sender-side bookkeeping behind DeltaStampFor. It is
// runtime-only: Snapshot/Restore exclude it, so a recovered process
// naturally re-introduces itself with full vectors.
type deltaState struct {
	// ver counts T-entry updates; tver[j] is the version at which T[j]
	// last changed. Both start at 1 so a zero sentVer means "never sent".
	ver  uint64
	tver []uint64
	// sentVer[dst] is the high-water mark: the update version as of the
	// last stamp sent to dst (0 = no stamp sent this incarnation pair).
	sentVer []uint64
	// next/prev thread the ranks on a recency list ordered by tver
	// descending; head is the most recently changed rank.
	next, prev []int32
	head       int32
	// scratch buffers reused across DeltaStampFor calls.
	full []int64
	idx  []int64
	val  []int64
}

func newDeltaState(n int) deltaState {
	d := deltaState{
		ver:     1,
		tver:    make([]uint64, n),
		sentVer: make([]uint64, n),
		next:    make([]int32, n),
		prev:    make([]int32, n),
		head:    -1,
	}
	// All entries share version 1 (the initial zero vector); list order
	// among them is immaterial because a full vector covers them all.
	for j := n - 1; j >= 0; j-- {
		d.tver[j] = 1
		d.push(int32(j))
	}
	return d
}

func (d *deltaState) push(j int32) {
	d.prev[j] = -1
	d.next[j] = d.head
	if d.head >= 0 {
		d.prev[d.head] = j
	}
	d.head = j
}

// touch records that T[j] changed: it takes the next version and moves j
// to the recency head, keeping the list sorted by tver descending.
func (d *deltaState) touch(j int) {
	d.ver++
	d.tver[j] = d.ver
	if d.head == int32(j) {
		return
	}
	// Unlink, then push to head.
	p, n := d.prev[j], d.next[j]
	if p >= 0 {
		d.next[p] = n
	}
	if n >= 0 {
		d.prev[n] = p
	}
	d.push(int32(j))
}

// touchAll marks every entry changed (Restore rewrites T wholesale) and
// forgets all high-water marks, so the next stamp to anyone is full.
func (d *deltaState) touchAll() {
	d.ver++
	for j := range d.tver {
		d.tver[j] = d.ver
		d.sentVer[j] = 0
	}
}

// DeltaStampFor builds the piggyback for a fault-tolerance message to
// dst: a full vector on first contact (or after ResetPeer), otherwise
// only the T entries that changed since the last stamp to dst. The
// returned slices alias scratch buffers reused by the next call.
func (c *Clocks) DeltaStampFor(dst int) DeltaStamp {
	s := DeltaStamp{From: c.self, CForDst: c.C[dst]}
	d := &c.delta
	if d.sentVer[dst] == 0 {
		d.full = append(d.full[:0], c.T...)
		s.Full = d.full
	} else {
		low := d.sentVer[dst]
		idx, val := d.idx[:0], d.val[:0]
		for j := d.head; j >= 0 && d.tver[j] > low; j = d.next[j] {
			idx = append(idx, int64(j))
			val = append(val, c.T[j])
		}
		d.idx, d.val = idx, val
		s.Idx, s.Val = idx, val
	}
	d.sentVer[dst] = d.ver
	return s
}

// AbsorbDelta merges a received piggyback: the time vector entries are
// max-merged (except our own entry, which only we advance) and D[from]
// learns the sender's latest c_{from,self}. Unknown or out-of-range
// entries are ignored, as are stale values (merging is a monotone max).
func (c *Clocks) AbsorbDelta(s DeltaStamp) {
	if s.From < 0 || s.From >= len(c.T) || s.From == c.self {
		return
	}
	for j, v := range s.Full {
		c.raise(int64(j), v)
	}
	for k, j := range s.Idx {
		if k < len(s.Val) {
			c.raise(j, s.Val[k])
		}
	}
	if s.CForDst > c.D[s.From] {
		c.D[s.From] = s.CForDst
	}
}

// raise max-merges v into T[j], routing a change through the delta
// tracker. Our own entry and out-of-range ranks are left alone.
func (c *Clocks) raise(j, v int64) {
	if j < 0 || j >= int64(len(c.T)) || int(j) == c.self || v <= c.T[j] {
		return
	}
	c.T[j] = v
	c.delta.touch(int(j))
}

// ResetPeer forgets the high-water mark for a peer whose incarnation
// changed: stamps sent to the dead incarnation may be lost, so the next
// stamp to the replacement carries the full vector. Call it wherever a
// restarted process's new identity is installed.
func (c *Clocks) ResetPeer(rank int) {
	if rank < 0 || rank >= len(c.delta.sentVer) {
		return
	}
	c.delta.sentVer[rank] = 0
}
