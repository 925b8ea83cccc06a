package sam

import (
	"fmt"

	"samft/internal/codec"
)

// Application command opcodes.
type cmdOp int

const (
	opCreateValue cmdOp = iota + 1
	opUseValue
	opDoneValue
	opFreeValue
	opRenameValue
	opCreateAccum
	opUpdateAccum
	opReleaseAccum
	opChaoticRead
	opPush
	opPrefetch
	opGate
	opCompute
	opFinish
	opInvariants // harness: live invariant snapshot (LiveInvariants)
)

// cmd is one application request to the runtime goroutine. The
// application's own commands share one slot (Proc.slot): the application
// goroutine has at most one call in flight, and a handler never reads the
// command once it has answered it.
type cmd struct {
	op       cmdOp
	name     Name
	obj      interface{}
	accesses int64
	rank     int     // push destination
	step     int64   // gate: the step just completed
	initial  bool    // gate: force the initial checkpoint
	us       float64 // compute: modeled microseconds to charge
	res      chan cmdResult
	answered bool // reply has run: a second answer is a runtime bug
}

type cmdResult struct {
	obj interface{}
	err error
}

// call submits a command and blocks the application until it completes.
// If the process dies while waiting, the application goroutine unwinds.
// The command travels in the process's one slot and is answered on its one
// reply channel, so a call allocates nothing of its own.
func (p *Proc) call(c cmd) interface{} {
	c.res = p.replies
	p.slot = c
	select {
	case p.cmdq <- &p.slot:
	case <-p.deadc:
		panic(procKilled{p.cfg.Rank})
	}
	select {
	case r := <-p.replies:
		if r.err != nil {
			panic(fmt.Errorf("sam: rank %d %v: %w", p.cfg.Rank, c.op, r.err))
		}
		return r.obj
	case <-p.deadc:
		panic(procKilled{p.cfg.Rank})
	}
}

// CreateValue atomically creates the named single-assignment value with
// the given contents and declares how many UseValue accesses will occur
// across all processes (Unlimited for explicit FreeValue). The contents
// must be of a codec-registered type and must not be mutated afterwards:
// values are immutable once created.
func (p *Proc) CreateValue(name Name, contents interface{}, accesses int64) {
	p.call(cmd{op: opCreateValue, name: name, obj: contents, accesses: accesses})
}

// UseValue blocks until the named value has been created and is available
// locally, then returns a pointer to the local copy. Each UseValue must be
// paired with DoneValue; accessors must not outlive the enclosing
// application step. The returned object must be treated as read-only.
// Once that step has ended, the runtime may decode another value into the
// copy's storage, so nothing reachable from the returned value — its
// slices and pointees included — may be kept past the step: copy out what
// must outlive it.
func (p *Proc) UseValue(name Name) interface{} {
	return p.call(cmd{op: opUseValue, name: name})
}

// DoneValue ends the accessor started by UseValue.
func (p *Proc) DoneValue(name Name) {
	p.call(cmd{op: opDoneValue, name: name})
}

// FreeValue declares that all accesses to a value this process owns have
// occurred (for values created with Unlimited accesses).
func (p *Proc) FreeValue(name Name) {
	p.call(cmd{op: opFreeValue, name: name})
}

// RenameValue reuses the storage of an exhausted value as a new value: it
// blocks until every declared access to old has occurred, then returns
// the contents for in-place update. The update must be completed and the
// new value published with CreateRenamed before the step ends.
func (p *Proc) RenameValue(old, new Name) interface{} {
	return p.call(cmd{op: opRenameValue, name: old})
}

// CreateRenamed publishes the value obtained from RenameValue under its
// new name. The contents argument is the (possibly updated) object
// returned by RenameValue.
func (p *Proc) CreateRenamed(name Name, contents interface{}, accesses int64) {
	p.call(cmd{op: opCreateValue, name: name, obj: contents, accesses: accesses})
}

// CreateAccum creates the named accumulator with the given initial
// contents; this process becomes its first owner. Creating an accumulator
// is not reexecutable, so it taints the current step.
func (p *Proc) CreateAccum(name Name, contents interface{}) {
	p.call(cmd{op: opCreateAccum, name: name, obj: contents})
}

// UpdateAccum obtains mutual exclusion on the accumulator, migrating it
// to this process if necessary, and returns its contents for update. It
// must be paired with ReleaseAccum before the step ends.
func (p *Proc) UpdateAccum(name Name) interface{} {
	return p.call(cmd{op: opUpdateAccum, name: name})
}

// ReleaseAccum ends the update started by UpdateAccum.
func (p *Proc) ReleaseAccum(name Name) {
	p.call(cmd{op: opReleaseAccum, name: name})
}

// ChaoticRead returns a "recent" version of the accumulator without
// mutual exclusion: a locally cached version if one exists, otherwise a
// snapshot fetched from the owner. The result may be stale and the read
// is not reexecutable.
func (p *Proc) ChaoticRead(name Name) interface{} {
	return p.call(cmd{op: opChaoticRead, name: name})
}

// Push proactively sends a copy of an owned value to another process's
// cache, overlapping communication with computation. Push is
// asynchronous: if the value is nonreproducible and uncovered, the copy
// rides the next checkpoint transaction. It is only a delivery hint:
// pushing a value that has already been reclaimed (every declared use
// happened before the Push was reached) does nothing.
func (p *Proc) Push(name Name, rank int) {
	p.call(cmd{op: opPush, name: name, rank: rank})
}

// Prefetch starts fetching a value into the local cache without blocking;
// a later UseValue will hit locally if the fetch has completed.
func (p *Proc) Prefetch(name Name) {
	p.call(cmd{op: opPrefetch, name: name})
}

// Compute charges us microseconds of modeled local computation. It is a
// command: the runtime goroutine charges it, as it charges every message
// the process handles or sends, so the process's clock has one writer
// (DESIGN §7 "When a receive is charged").
func (p *Proc) Compute(us float64) { p.call(cmd{op: opCompute, us: us}) }

// gate marks a step boundary: the runtime captures the application
// snapshot and runs any pending checkpoint work before the next step.
func (p *Proc) gate(step int64, initial bool) {
	p.call(cmd{op: opGate, step: step, initial: initial})
}

// handleCmd processes one application command on the runtime goroutine.
func (p *Proc) handleCmd(c *cmd) {
	switch c.op {
	case opCreateValue:
		p.cmdCreateValue(c)
	case opUseValue:
		p.cmdUseValue(c)
	case opDoneValue:
		p.cmdDoneValue(c)
	case opFreeValue:
		p.cmdFreeValue(c)
	case opRenameValue:
		p.cmdRenameValue(c)
	case opCreateAccum:
		p.cmdCreateAccum(c)
	case opUpdateAccum:
		p.cmdUpdateAccum(c)
	case opReleaseAccum:
		p.cmdReleaseAccum(c)
	case opChaoticRead:
		p.cmdChaoticRead(c)
	case opPush:
		p.cmdPush(c)
	case opPrefetch:
		p.cmdPrefetch(c)
	case opGate:
		p.cmdGate(c)
	case opCompute:
		p.task.Charge(c.us)
		p.reply(c, nil, nil)
	case opInvariants:
		p.reply(c, p.invariants(), nil)
	case opFinish:
		p.appFinished = true
		p.flushUseNotices()
		// Triggers queued while the application was running its last step
		// can proceed now: the process is permanently at a boundary.
		p.maybeStartTx()
		// The reply comes last: once every application has returned from
		// finish, only message handlers send, which is what lets the harness
		// decide quiescence by counting frames (cluster.Quiesce).
		p.reply(c, nil, nil)
	default:
		p.reply(c, nil, fmt.Errorf("unknown op %d", c.op))
	}
}

// cmdGate handles a step boundary (§4.4's natural checkpoint point).
func (p *Proc) cmdGate(c *cmd) {
	// Accessor discipline: accessors must not span boundaries, both so the
	// snapshot is self-contained and so recovery can replay the next step.
	for _, o := range p.objs {
		if o.pins > 0 {
			p.reply(c, nil, fmt.Errorf("value %v still in use at step boundary", o.name))
			return
		}
		if o.accLocked {
			p.reply(c, nil, fmt.Errorf("accumulator %v still held at step boundary", o.name))
			return
		}
	}
	if n := len(p.stepLog) - p.replayAt; n > 0 {
		p.reply(c, nil, fmt.Errorf("%w: step %d ended with %d logged result(s) not asked for", errReplayDiverged, c.step, n))
		return
	}
	if p.tx == nil && p.logCovered > 0 && p.logCovered == len(p.stepLog) {
		// A committed mid-step checkpoint of this step holds the previous
		// boundary and every non-reexecutable result the step had: the new
		// boundary is reproducible (DESIGN §7 "Mid-step checkpoints").
		p.taint.OnCheckpoint()
	}
	p.logCovered = 0
	p.stepsDone = c.step
	p.stepLog, p.replayAt = p.stepLog[:0], 0
	p.flushUseNotices()

	if !p.ftEnabled() {
		p.reply(c, nil, nil)
		return
	}

	// Capture the boundary snapshot: the state recovery restores and
	// replays from. Charged as modeled pack time. The buffer is the
	// runtime's, repacked in place: nothing sends it by reference, and the
	// private state packs its own copy (buildPrivateState).
	snap := p.app.Snapshot()
	b, err := codec.AppendPack(p.boundarySnap[:0], snap)
	if err != nil {
		p.reply(c, nil, fmt.Errorf("snapshot: %w", err))
		return
	}
	p.boundarySnap = b
	p.task.Charge(float64(len(b)) / packBytesPerUS)

	if c.initial && !p.hasCheckpointed {
		p.pendingTriggers = append(p.pendingTriggers, trigger{kind: 0}) // bare checkpoint
	}
	if p.tx == nil {
		p.sendCovered()
		if len(p.pendingTriggers) > 0 {
			p.heldCmd = c
			p.startTx()
			return
		}
	}
	// Nothing to checkpoint, or a transaction is already mid-flight (started
	// while the app was parked): the boundary completes independently and
	// the app may proceed.
	p.reply(c, nil, nil)
}

// releaseHeld completes the command held for the transaction that just
// committed.
func (p *Proc) releaseHeld() {
	if p.heldCmd != nil {
		p.reply(p.heldCmd, nil, nil)
	}
}
