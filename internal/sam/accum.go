package sam

import (
	"errors"
	"fmt"

	"samft/internal/codec"
	"samft/internal/ft"
	"samft/internal/trace"
)

// Accumulators migrate between processes under mutual exclusion. The home
// process of an accumulator's name arbitrates: acquisition requests queue
// there in FIFO order, and the home orders the current owner to migrate
// the main copy to the next waiter. A migration transfers ownership and —
// because accumulator contents are nonreproducible — always rides a
// checkpoint transaction when fault tolerance is on.

// ---- application commands ----

func (p *Proc) cmdCreateAccum(c *cmd) {
	if p.replay(c) {
		return
	}
	o := p.obj(c.name)
	p.logResult(c, nil)
	if o.isMain && o.created && o.kind == ft.KindAccum {
		// Recovery replay: the accumulator was restored from its
		// checkpoint copy (or recreated); keep the restored contents.
		p.reply(c, nil, nil)
		return
	}
	o.kind = ft.KindAccum
	o.data = c.obj
	o.state = stPresent
	o.isMain = true
	o.created = true
	o.nonrepro = true // accumulator contents are never reproducible
	o.dirty = true
	o.dirtySeq++
	o.accessesDeclared = Unlimited
	p.taint.OnNonReexecutable()

	p.send(p.home(c.name), &wire{Kind: kReg, Name: uint64(c.name)})
	// A recovering creator may have received a re-driven migration grant
	// before this (re-)creation: the home believes that grant is in
	// flight and will not issue another until it completes, so serve it
	// now that the main copy exists.
	p.drainPendingGrants(o)
	p.reply(c, nil, nil)
}

// drainPendingGrants replays migration grants that arrived while this
// process did not yet hold the accumulator's main copy (handleGrant
// stashes them). Every transition to isMain must drain the stash: a
// grant left behind keeps the home's grantInFlight set forever and
// wedges every queued acquirer.
func (p *Proc) drainPendingGrants(o *object) {
	if !o.isMain || len(o.pendingGrants) == 0 {
		return
	}
	grants := o.pendingGrants
	o.pendingGrants = nil
	for _, g := range grants {
		p.handleGrant(o.name, g)
	}
}

func (p *Proc) cmdUpdateAccum(c *cmd) {
	if p.replay(c) {
		return
	}
	p.st.SharedAccesses.Add(1)
	o := p.obj(c.name)
	if o.isMain && o.created && o.state == stPresent && !o.accLocked && o.pendingMove < 0 {
		// Fast path: we own the accumulator and no migration is pending.
		p.grantAccumLock(o, c)
		return
	}
	p.st.Misses.Add(1)
	if o.isMain && o.state == stPresent && o.accLocked {
		// The application has a single thread, so a locked accumulator
		// here means unbalanced Update/Release calls.
		p.reply(c, nil, fmt.Errorf("UpdateAccum(%v): already locked locally", c.name))
		return
	}
	// Note: an outbound migration may be pending (pendingMove >= 0); the
	// acquire then queues at the home and is served when the accumulator
	// migrates back, preserving the home's FIFO order.
	p.ensureFetch(o, kAccAcq)
	o.waiters = append(o.waiters, c)
	p.park(c)
}

// grantAccumLock gives the application the update lock on a local main
// copy. Observing the accumulator's current contents is the canonical
// non-reexecutable operation.
func (p *Proc) grantAccumLock(o *object, c *cmd) {
	o.accLocked = true
	p.locksHeld++
	p.taint.OnNonReexecutable()
	p.logResult(c, o)
	p.reply(c, o.data, nil)
}

func (p *Proc) cmdReleaseAccum(c *cmd) {
	if p.replayHeld[c.name] {
		// A replayed update: its effect is already in the restored main
		// copy, or left with the migration that followed it.
		delete(p.replayHeld, c.name)
		p.locksHeld--
		p.reply(c, nil, nil)
		return
	}
	o := p.objs[c.name]
	if o == nil || !o.accLocked {
		p.reply(c, nil, fmt.Errorf("ReleaseAccum(%v) without UpdateAccum", c.name))
		return
	}
	o.accLocked = false
	p.locksHeld--
	o.dirty = true
	o.dirtySeq++
	o.version++
	// Serve the chaotic reads deferred during the update, then a migration
	// that arrived while the application held the lock.
	p.serveRemoteWaiters(o)
	if p.ftEnabled() && o.pendingMove >= 0 && p.tx == nil && p.locksHeld == 0 && p.boundarySnap != nil {
		// The release is a checkpoint point (DESIGN §7 "Mid-step
		// checkpoints"): the migration's transaction starts inside the call,
		// and commitTx replies, maybe before tryMigrate returns. Returning
		// before the commit would let the application charge its compute
		// first, and the commit — the new owner's activation — would again
		// be stamped after it.
		p.heldCmd = c
		p.tryMigrate(o)
		return
	}
	p.tryMigrate(o)
	p.reply(c, nil, nil)
}

func (p *Proc) cmdChaoticRead(c *cmd) {
	if p.replay(c) {
		return
	}
	p.st.SharedAccesses.Add(1)
	o := p.obj(c.name)
	if o.usable() && o.kind == ft.KindAccum {
		p.serveChaoticLocal(o, c)
		return
	}
	p.st.Misses.Add(1)
	p.ensureFetch(o, kReadReq)
	o.waiters = append(o.waiters, c)
	p.park(c)
}

// serveChaoticLocal returns the locally available version (current
// contents if we own it, a stale cached version otherwise). A chaotic
// read observes nondeterministic data and taints the step.
func (p *Proc) serveChaoticLocal(o *object, c *cmd) {
	p.taint.OnNonReexecutable()
	p.logResult(c, o)
	p.reply(c, o.data, nil)
}

// ---- the step log (DESIGN §7 "Mid-step checkpoints") ----

// errReplayDiverged reports a step whose replay from a mid-step checkpoint
// did not repeat the logged operations: the step is not deterministic.
var errReplayDiverged = errors.New("replay diverged")

// logResult appends what the application's command c returned to the step
// log: o's contents as they stand now, or nothing (o nil) for a creation.
// The body comes from the snapshot cache, so logging an accumulator that
// has just arrived costs no pack.
func (p *Proc) logResult(c *cmd, o *object) {
	if !p.ftEnabled() {
		return
	}
	e := ft.LogEntry{Op: uint8(c.op), Name: uint64(c.name)}
	if o != nil {
		e.Body = p.packObject(o)
	}
	p.stepLog = append(p.stepLog, e)
	p.replayAt++
}

// replay answers c from the step log while the step in progress is being
// replayed from a mid-step checkpoint, and reports whether it did. Nothing
// is acquired, created or fetched: the restored state already reflects the
// operation, and the accumulator may have migrated on since.
func (p *Proc) replay(c *cmd) bool {
	if p.replayAt == len(p.stepLog) {
		return false
	}
	e := p.stepLog[p.replayAt]
	if cmdOp(e.Op) != c.op || Name(e.Name) != c.name {
		p.reply(c, nil, fmt.Errorf("%w: op %d on %v where the log has op %d on %v",
			errReplayDiverged, c.op, c.name, e.Op, Name(e.Name)))
		return true
	}
	p.replayAt++
	p.st.ReplayedOps.Add(1)
	p.taint.OnNonReexecutable()
	if c.op == opCreateAccum {
		p.reply(c, nil, nil)
		return true
	}
	contents, err := codec.Unpack(e.Body)
	if err != nil {
		p.reply(c, nil, fmt.Errorf("replay %v: %w", c.name, err))
		return true
	}
	if c.op == opUpdateAccum {
		if p.replayHeld == nil {
			p.replayHeld = make(map[Name]bool)
		}
		p.replayHeld[c.name] = true
		p.locksHeld++
	}
	p.reply(c, contents, nil)
	return true
}

// ---- home-side arbitration ----

// pumpAccumQueue issues the next migration grant if the owner is known
// and no grant is outstanding.
func (p *Proc) pumpAccumQueue(d *dirEntry) {
	if !d.known || d.grantInFlight || len(d.acqQueue) == 0 {
		return
	}
	next := d.acqQueue[0]
	d.acqQueue = d.acqQueue[1:]
	if next == d.owner {
		// The owner asks for what the home's record — the committed
		// migrations — says it holds: a replacement whose main copy is not
		// restored yet, or a process holding a migration in doubt
		// (dropProvisionalFrom). Nothing to migrate; confirm the record.
		p.send(next, &wire{Kind: kOwnerReport, Name: uint64(d.name)})
		p.pumpAccumQueue(d)
		return
	}
	d.grantInFlight = true
	d.grantTarget = next
	p.send(d.owner, &wire{Kind: kAccGrant, Name: uint64(d.name), Target: next})
}

// ---- owner-side migration ----

// handleGrant processes a migration order at the current owner.
func (p *Proc) handleGrant(name Name, target int) {
	o := p.objs[name]
	if o == nil || !o.isMain {
		// Either ownership moved on (tell the home who has it now) or we
		// are recovering and the restored main copy has not arrived yet
		// (remember the grant; a later transition to isMain — restore,
		// migration-in, or re-creation by a recovering creator — drains it).
		if o != nil && !o.isMain && o.usable() && o.ownerRank >= 0 && o.ownerRank != p.cfg.Rank {
			p.send(p.home(name), &wire{Kind: kAccOwner, Name: uint64(name), Target: o.ownerRank})
			return
		}
		oo := p.obj(name)
		oo.pendingGrants = enqueue(oo.pendingGrants, target)
		return
	}
	if o.inDoubt() {
		p.activate(o) // the home grants from its record: the migration committed
	}
	o.pendingMove = target
	p.tryMigrate(o)
}

// tryMigrate performs a pending outbound migration once the accumulator
// is locally quiescent: present (an inactive copy is still owned by the
// sender's uncommitted checkpoint) and unlocked. A local acquire that the
// accumulator arrived for is always granted at the present-transition,
// before any migration attempt, so the home's grant order is honored.
func (p *Proc) tryMigrate(o *object) {
	if o.pendingMove < 0 || o.migrationQueued || !o.isMain ||
		o.state != stPresent || o.accLocked {
		return
	}
	if p.ftEnabled() {
		// The transfer is nonreproducible data changing hands: it rides a
		// checkpoint transaction and ownership commits with it (§4.4).
		o.migrationQueued = true
		p.addTrigger(trigger{kind: kAccData, name: o.name, target: o.pendingMove})
		return
	}
	p.sendObject(o, kAccData, o.pendingMove, nil)
}

// handOff gives up ownership of a migrated accumulator: at once when fault
// tolerance is off, at commit when the transfer rode a checkpoint
// transaction. The local entry becomes a stale cached version for chaotic
// reads, and records the successor so stale grants can be re-routed.
func (p *Proc) handOff(o *object, target int) {
	o.isMain = false
	o.accLocked = false
	o.dirty = false
	o.pendingMove = -1
	o.migrationQueued = false
	o.ownerRank = target
	// Ownership left: the new owner packs from here on.
	o.invalidatePackCache()
	p.send(p.home(o.name), &wire{Kind: kAccOwner, Name: uint64(o.name), Target: target})
}

// ---- message handlers ----

// onAccAcq queues an acquisition at the name's home (FIFO).
func (p *Proc) onAccAcq(w *wire) {
	d := p.dirEnt(Name(w.Name))
	d.acqQueue = enqueue(d.acqQueue, w.SrcRank)
	p.pumpAccumQueue(d)
}

func (p *Proc) onAccData(w *wire) {
	if w.Inactive {
		p.ackPiece(w)
	}
	name := Name(w.Name)
	o := p.obj(name)
	data, err := codec.Unpack(w.Body)
	if err != nil {
		return
	}
	o.kind = ft.KindAccum
	o.data = data
	o.created = true
	o.isMain = true
	o.nonrepro = true
	o.dirty = true
	o.dirtySeq++
	o.keepPacked(w.Body)
	if p.rec != nil {
		p.emit(trace.Event{Kind: trace.SamMigrateIn, Name: w.Name, Src: int64(w.SrcRank), Bytes: len(w.Body)})
	}
	if w.HasMeta && w.Meta.Version > o.version {
		o.version = w.Meta.Version
	}
	o.pendingMove = -1
	o.migrationQueued = false
	if p.inc != nil {
		// Recovery data for the object still in flight is older than this.
		p.inc.recoverInstalled[name] = true
	}
	if w.Inactive {
		// Ownership commits with the sender's checkpoint (if the sender dies
		// before activating it, the entry is in doubt until the home
		// settles it: dropProvisionalFrom), and that transaction also places
		// fresh checkpoint copies of this object under our ownership,
		// stamped with the sender's sequence number, where our own
		// placement puts them. Adopt them as our backing checkpoint:
		// bookkeeping left over from an earlier ownership epoch names
		// copies that are gone or stale, and would poison the recovery
		// re-supply path and free accounting.
		o.setCommitted(w.Seq, w.Body)
		p.store.Record(uint64(name), w.Seq, p.store.Plan(uint64(name), p.cfg.Rank))
	}
	p.arrived(o, w)
	// Grants stashed while we were not the owner become a pending move now;
	// tryMigrate waits for the activate if the contents are inactive.
	p.drainPendingGrants(o)
}

// onAccOwner learns, at the name's home, that a migration to Target
// completed.
func (p *Proc) onAccOwner(w *wire) {
	d := p.dirEnt(Name(w.Name))
	// A migration other than the one we granted (a stale grant that raced a
	// recovery, or a pre-failure migration we only now learn about) means our
	// grant chased a stale owner.
	stale := d.grantInFlight && w.Target != d.grantTarget
	if d.grantInFlight && !stale {
		// The grant we issued completed.
		d.grantInFlight = false
		d.grantTarget = -1
	}
	p.setOwner(d.name, w.Target)
	if stale {
		// Re-drive the grant at the new owner so the queue keeps moving.
		p.send(d.owner, &wire{Kind: kAccGrant, Name: w.Name, Target: d.grantTarget})
	}
}
