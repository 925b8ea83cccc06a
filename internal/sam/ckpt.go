package sam

import (
	"fmt"
	"slices"
	"strings"

	"samft/internal/codec"
	"samft/internal/ft"
	"samft/internal/trace"
)

// This file implements §4.3–§4.4 of the paper: the checkpoint transaction
// (private state + checkpoint copies + inactive/activate two-phase commit)
// and the lazy reclamation of freeable main copies via the virtual-time
// vectors, with force-checkpoint messages as the fallback.

// ckptTx is one checkpoint transaction: planned whole by startTx, sent by
// sendTx, open until its last awaited ack commits it (DESIGN §7 "What a
// transaction sends, and in what order").
type ckptTx struct {
	seq int64
	// acksNeeded counts the destinations whose one ack is still out. sendTx
	// fixes it before the first send: a piece to our own rank is acked
	// inside send.
	acksNeeded int
	// pieces are the transaction's messages in send order, kept so they can
	// be re-sent, in that order, if a recipient fails mid-transaction (§4.5:
	// "aborts and restarts any checkpoint it has started that involves
	// process p").
	pieces []txPiece
	// awaited marks, by rank, the destinations of a numbered piece: the
	// ranks whose ack commits the transaction and that the activation goes
	// to.
	awaited []bool
	// dirtyAt records each replicated object's mutation counter at send
	// time; dirty is cleared at commit only if unchanged since.
	dirtyAt map[Name]int64
	// staleFrees are kFreeCkpt messages for superseded copy placements,
	// deferred to commit so an aborted transaction never drops the only
	// backup of an object.
	staleFrees []txPiece
	// forced marks a transaction performed in response to a
	// force-checkpoint message.
	forced bool
	// priv is the private state the transaction replicates; it becomes
	// lastPriv only at commit. logLen is the length of the step log it
	// carries (mid-step when > 0), and step the stepsDone it started at.
	// release marks one a held ReleaseAccum opened.
	priv    privImage
	logLen  int
	step    int64
	release bool
}

// txPiece is one message of a transaction, its wire held by value. The last
// inactive piece to each destination is numbered (w.Piece >= 0) and draws
// that destination's ack.
type txPiece struct {
	rank  int
	w     wire
	acked bool
}

// add plans one more piece for rank: a copy of w, so the caller's wire can
// live on its stack.
func (tx *ckptTx) add(rank int, w *wire) {
	tx.pieces = append(tx.pieces, txPiece{rank: rank, w: *w})
}

// newTx returns the transaction startTx plans into: the one the last
// commit finished with (p.txFree), emptied, so its pieces array, stale-free
// list and maps are reused, or a fresh one.
func (p *Proc) newTx() *ckptTx {
	tx := p.txFree
	p.txFree = nil
	if tx == nil {
		return &ckptTx{dirtyAt: make(map[Name]int64)}
	}
	*tx = ckptTx{
		pieces:     tx.pieces[:0],
		awaited:    tx.awaited[:0],
		dirtyAt:    tx.dirtyAt,
		staleFrees: tx.staleFrees[:0],
	}
	if tx.dirtyAt == nil {
		tx.dirtyAt = make(map[Name]int64)
	}
	return tx
}

// retireTx keeps a committed transaction for the next startTx, its pieces
// zeroed so they hold no bodies.
func (p *Proc) retireTx(tx *ckptTx) {
	clear(tx.pieces)
	clear(tx.staleFrees)
	clear(tx.dirtyAt)
	p.txFree = tx
}

// alreadyCarried is the nothing-rides-twice rule: a read or push of value o
// for rank needs no send of its own when the open transaction — still being
// planned, or sent and waiting for its acks — already takes o's contents
// there, as a read reply or push, or as a full checkpoint copy, which the
// activation makes usable like any cached copy (§4.4).
func (p *Proc) alreadyCarried(o *object, rank int) bool {
	if p.tx == nil || o.kind != ft.KindValue {
		return false
	}
	for i := range p.tx.pieces {
		pc := &p.tx.pieces[i]
		if pc.rank == rank && Name(pc.w.Name) == o.name &&
			(pc.w.Kind == kObjData || pc.w.Kind == kCkptCopy) {
			p.st.DupSendsAvoided.Add(1)
			return true
		}
	}
	return false
}

// maxFreeBacklog models cache replacement pressure: once this many
// freeable main copies are awaiting reclamation, the process sends
// force-checkpoint messages for the oldest instead of waiting for
// piggybacked knowledge — or, with fault tolerance off, simply drops the
// oldest. The paper frees lazily "at some point later, [when the copy] will
// be replaced in the cache".
const maxFreeBacklog = 256

// packObject returns the packed frame for a locally held object's current
// contents, consulting the version-keyed snapshot cache: if the object has
// not been mutated since the last pack (same dirtySeq), the previously
// produced bytes are reused and no modeled pack time is charged. This is
// the checkpoint hot path's first-order saving — an unchanged object costs
// nothing to re-replicate or re-serve.
func (p *Proc) packObject(o *object) []byte {
	if !p.cfg.NoSnapCache && o.packCache != nil && o.packCacheSeq == o.dirtySeq {
		p.st.SnapCacheHits.Add(1)
		p.st.SnapCacheBytesSaved.Add(int64(len(o.packCache)))
		if p.rec != nil {
			p.emit(trace.Event{Kind: trace.SamSnapHit, Name: uint64(o.name), Bytes: len(o.packCache)})
		}
		return o.packCache
	}
	b, err := codec.Pack(o.data)
	if err != nil {
		panic(fmt.Errorf("sam: pack %v: %w", o.name, err))
	}
	p.task.Charge(float64(len(b)) / packBytesPerUS)
	p.st.SnapCacheMisses.Add(1)
	if p.rec != nil {
		p.emit(trace.Event{Kind: trace.SamSnapMiss, Name: uint64(o.name), Bytes: len(b)})
	}
	if !p.cfg.NoSnapCache {
		o.packCache = b
		o.packCacheSeq = o.dirtySeq
	}
	return b
}

// addTrigger queues a nonreproducible send to ride the next checkpoint
// transaction.
func (p *Proc) addTrigger(t trigger) {
	p.pendingTriggers = append(p.pendingTriggers, t)
	p.maybeStartTx()
}

// maybeStartTx starts a checkpoint transaction if one is needed and the
// application is at a consistent point: held at a step boundary or in a
// release that owes a migration (cmdReleaseAccum), parked anywhere mid-step
// (the boundary snapshot plus the step log reproduces it exactly), or
// finished. Parked mid-step excludes two cases: an accumulator update lock
// is held — its contents are mid-mutation in the application's hands — and
// Init is still running, so there is no boundary snapshot yet.
func (p *Proc) maybeStartTx() {
	if !p.ftEnabled() || p.tx != nil {
		return
	}
	p.sendCovered()
	if len(p.pendingTriggers) == 0 {
		return
	}
	switch {
	case p.heldCmd != nil, p.appFinished:
		p.startTx()
	case p.appParked != nil && p.locksHeld == 0 && p.boundarySnap != nil:
		p.startTx()
	}
}

// sendCovered sends the queued reads and pushes that need no transaction any
// more: a commit since they were queued covered their object (they waited
// behind an open transaction that did not serve their rank), so they leave
// the way deliver would send them now.
func (p *Proc) sendCovered() {
	kept := p.pendingTriggers[:0]
	for _, t := range p.pendingTriggers {
		o := p.objs[t.name]
		if t.kind == kObjData && o != nil && o.isMain && o.created &&
			o.state == stPresent && !o.accLocked && !p.unstable(o) {
			p.sendObject(o, kObjData, t.target, nil)
			continue
		}
		kept = append(kept, t)
	}
	p.pendingTriggers = kept
}

// startTx executes §4.4's checkpoint steps as plan, then send: one pass
// decides every piece of the transaction, a second sends them.
func (p *Proc) startTx() {
	seq := p.clocks.BeginCheckpoint()
	tx := p.newTx()
	tx.seq = seq
	tx.forced = p.pendingForced
	tx.logLen = len(p.stepLog)
	tx.step = p.stepsDone
	tx.release = p.heldCmd != nil && p.heldCmd.op == opReleaseAccum
	p.pendingForced = false
	p.tx = tx
	if p.rec != nil {
		note := ""
		if tx.forced {
			note = "forced "
		}
		if tx.logLen > 0 {
			note += "midstep "
		}
		if tx.release {
			note += "release"
		}
		p.emit(trace.Event{Kind: trace.SamCkptBegin, Aux: seq, Note: strings.TrimSpace(note)})
	}

	// The triggers are double-buffered: sends planned below may queue new
	// ones, for the next transaction.
	trigs := p.pendingTriggers
	p.pendingTriggers, p.trigSpare = p.trigSpare[:0], nil

	// Accumulators migrating in this transaction: ownership transfers
	// commit with the checkpoint, so the private state records them as
	// no longer owned and their checkpoint copies are placed for (and
	// name) the new owner.
	migrating := make(map[Name]int)
	for _, t := range trigs {
		if t.kind == kAccData {
			migrating[t.name] = t.target
		}
	}

	// Step 1: replicate the private state. It is stored provisionally at
	// the holder and promoted by the activation at commit, so a process
	// that dies mid-transaction recovers from its previous committed
	// checkpoint (its uncommitted pieces are dropped by the survivors).
	body, err := codec.Pack(p.buildPrivateState(seq, migrating))
	if err != nil {
		panic(fmt.Errorf("sam: pack private state: %w", err))
	}
	tx.priv = privImage{seq: seq, body: body}
	p.task.Charge(float64(len(body)) / packBytesPerUS)
	p.st.PrivBytes.Add(int64(len(body)))
	privPiece := wire{Kind: kCkptPriv, Body: body, Seq: seq, Inactive: true}
	for _, r := range p.privHolders {
		tx.add(r, &privPiece)
	}

	// Steps 2–3: replicate owned objects changed since the last
	// checkpoint. Nonreproducible objects go inactive (ack + activate);
	// reproducible ones go active immediately.
	names := sortedNames(p, p.objs)
	for _, name := range names {
		o := p.objs[name]
		if !o.isMain || !o.created || o.state != stPresent {
			continue
		}
		owner, isMigrating := migrating[o.name]
		if !isMigrating {
			owner = p.cfg.Rank
		}
		// A migrating object is replicated even when clean: its existing
		// checkpoint copy names the old owner and would not restore to
		// the new one after a failure.
		if !o.dirty && !isMigrating {
			continue
		}
		holders := p.store.Plan(uint64(o.name), owner)
		ob := p.packObject(o)
		o.setCommitted(seq, ob)
		p.sendCkptCopies(o, ob, holders, owner, tx)
		// Stale holders from a previous placement drop their copies at
		// commit (dropping earlier could destroy the only backup if this
		// transaction aborts).
		for _, old := range p.store.HolderRanks(uint64(o.name)) {
			if !slices.Contains(holders, old) {
				tx.staleFrees = append(tx.staleFrees, txPiece{rank: old, w: wire{Kind: kFreeCkpt, Name: uint64(o.name), Seq: seq}})
			}
		}
		if !isMigrating {
			// A migrating object's new owner ledgers the same placement
			// itself (onAccData); ours is dropped when the migration commits.
			p.store.Record(uint64(o.name), seq, holders)
		}
		tx.dirtyAt[o.name] = o.dirtySeq
	}
	p.putNames(names)

	// Step 4: the sends that caused the checkpoint, inactive — each once.
	for _, t := range trigs {
		o := p.objs[t.name]
		if t.kind == 0 || o == nil || !o.isMain || !o.created {
			continue // bare checkpoint (initial or forced), or the object is gone
		}
		if t.kind == kObjData && p.alreadyCarried(o, t.target) {
			continue // an earlier trigger's piece, or a checkpoint copy, serves it
		}
		p.sendObject(o, t.kind, t.target, tx)
	}
	p.trigSpare = trigs[:0]

	p.sendTx(tx)
}

// sendTx sends a planned transaction. Bulk first: the commit waits for the
// slowest ack, and a piece's flight time is its size over the bandwidth. One
// ack per recipient: a pair of processes sees messages in order, so the ack
// of the last inactive piece to a destination vouches for the earlier ones.
func (p *Proc) sendTx(tx *ckptTx) {
	slices.SortStableFunc(tx.pieces, func(a, b txPiece) int { return len(b.w.Body) - len(a.w.Body) })
	tx.awaited = append(tx.awaited[:0], make([]bool, len(p.ranks))...)
	for i := len(tx.pieces) - 1; i >= 0; i-- {
		pc := &tx.pieces[i]
		pc.w.Piece = -1
		if pc.w.Inactive && !tx.awaited[pc.rank] {
			tx.awaited[pc.rank] = true
			pc.w.Piece = i
			tx.acksNeeded++
		}
	}
	// The private state goes inactive to another rank, whose ack cannot come
	// in before this loop ends: no commit, which hands tx to the next
	// transaction (retireTx), happens inside it.
	for i := range tx.pieces {
		pc := &tx.pieces[i]
		if p.rec != nil {
			note := kindName(pc.w.Kind)
			if pc.w.Inactive {
				note += " inactive"
			}
			if pc.w.Piece >= 0 {
				note += " +ack"
			}
			p.emit(trace.Event{
				Kind: trace.SamCkptPiece, Dst: int64(pc.rank), Name: pc.w.Name,
				Bytes: len(pc.w.Body), Aux: tx.seq, Note: note,
			})
		}
		p.send(pc.rank, &pc.w)
	}
	// A piece to our own rank is acked inside send, so the last ack can be in
	// before this returns — and has then already committed the transaction.
	if p.tx == tx && tx.acksNeeded == 0 {
		p.commitTx()
	}
}

// buildPrivateState assembles the §4.2 record in the process's one
// private-state record (p.privRec), reusing its vectors. Accumulators
// migrating in this transaction are excluded from the owned set: the
// checkpoint represents the state after the triggering sends. The record
// aliases the boundary snapshot, which the next gate repacks in place, and
// the next transaction rebuilds it, so the caller packs it before the
// runtime goroutine handles anything else.
func (p *Proc) buildPrivateState(seq int64, migrating map[Name]int) *ft.PrivateState {
	priv := &p.privRec
	*priv = ft.PrivateState{
		Rank:      p.cfg.Rank,
		Seq:       seq,
		StepsDone: p.stepsDone,
		AppState:  p.boundarySnap,
		T:         append(priv.T[:0], p.clocks.T...),
		C:         append(priv.C[:0], p.clocks.T...),
		D:         append(priv.D[:0], p.clocks.D...),
		Owned:     priv.Owned[:0],
		// Every entry, handed back yet or not: the restored objects reflect
		// them all.
		Log: p.stepLog,
	}
	priv.C[p.cfg.Rank] = seq
	for _, o := range p.objs {
		if o.isMain && o.created && o.state == stPresent {
			if _, ok := migrating[o.name]; ok {
				continue
			}
			priv.Owned = append(priv.Owned, o.meta())
		}
	}
	if len(priv.Owned) == 0 {
		priv.Owned = nil // packs as absent, a byte, where an empty list takes five
	}
	return priv
}

// commitTx completes the transaction: clocks advance, taint clears,
// ownership transfers finalize, activations go out, and deferred work
// resumes.
func (p *Proc) commitTx() {
	tx := p.tx
	p.clocks.CommitCheckpoint()
	p.lastPriv = tx.priv
	if tx.logLen > 0 {
		// The taint stays: values the rest of the step creates ride the
		// step-end transaction. Reproducible, each would be sent at once and
		// then again as that transaction's checkpoint copy (DESIGN §7). The
		// gate clears it if nothing non-reexecutable follows (logCovered).
		p.st.MidstepCkpts.Add(1)
		if tx.step == p.stepsDone {
			p.logCovered = tx.logLen
		}
	} else {
		p.taint.OnCheckpoint()
	}
	if tx.release {
		p.st.ReleaseCkpts.Add(1)
	}
	p.hasCheckpointed = true
	p.st.Checkpoints.Add(1)
	if tx.forced {
		p.st.ForcedCheckpoints.Add(1)
	}
	if p.rec != nil {
		note := ""
		if tx.forced {
			note = "forced"
		}
		t, c, d := p.clocks.Snapshot()
		p.emit(trace.Event{
			Kind: trace.SamCkptCommit, Aux: tx.seq, Note: note,
			T: trace.CopyVec(t), C: trace.CopyVec(c), D: trace.CopyVec(d),
		})
	}

	for name, seqAt := range tx.dirtyAt {
		if o := p.objs[name]; o != nil && o.dirtySeq == seqAt {
			o.dirty = false
		}
	}
	// A kill can cut a commit's sends anywhere, so they keep the order the
	// recovery protocol was debugged under (DESIGN §7): the home hears of a
	// migration before the new owner can act on it, and the new owner is not
	// woken ahead of the holder of the copy that backs it.
	for i := range tx.pieces {
		pc := &tx.pieces[i]
		if pc.w.Kind != kAccData {
			continue
		}
		p.store.Forget(pc.w.Name)
		if o := p.objs[Name(pc.w.Name)]; o != nil && o.isMain {
			p.handOff(o, pc.rank)
		}
	}
	for r, awaited := range tx.awaited {
		if awaited {
			p.send(r, &wire{Kind: kActivate, Seq: tx.seq})
		}
	}
	for i := range tx.staleFrees {
		sf := &tx.staleFrees[i]
		p.send(sf.rank, &sf.w)
	}

	// Answer force-checkpoint requests now covered by this checkpoint.
	reqs := p.forceReplies
	p.forceReplies = nil
	for _, origin := range reqs {
		p.send(origin, &wire{Kind: kForceAck})
	}

	p.tx = nil
	p.retireTx(tx)
	p.releaseHeld()

	p.applyDeferred()

	p.retryFrees()
	// Coverage repairs deferred while this transaction was open (its
	// images were provisional) can proceed against the committed state.
	p.repairCoverage()
	p.maybeStartTx()
}

// ---- freeable main copies (§4.3) ----

// markFreeable transitions an owned object to freeable: all declared
// accesses have occurred. A pending rename is served immediately (the
// storage is logically handed over); the entry itself is retained until
// every process has checkpointed since its last access — and with fault
// tolerance off, until cache pressure replaces it: the creator may reach a
// RenameValue or Push of the value only after the last use was reported.
func (p *Proc) markFreeable(o *object) {
	o.freeable = true
	if o.renameWaiter != nil {
		c := o.renameWaiter
		o.renameWaiter = nil
		p.completeRename(o, c)
	}
	o.freeableAt = p.clocks.Tick()
	p.freePending[o.name] = true
	if p.ftEnabled() && p.cfg.EagerFree {
		// Eager ablation: round-trip to every other process immediately.
		var others []int
		for j := 0; j < len(p.ranks); j++ {
			if j != p.cfg.Rank {
				others = append(others, j)
			}
		}
		p.forceCheckpoints(o, others)
	}
	p.retryFrees()
}

// retryFrees attempts to reclaim freeable main copies. Under lazy freeing
// the piggybacked D vector usually proves coverage without any extra
// messages; force-checkpoints go out only when the backlog exceeds the
// modeled cache pressure threshold.
func (p *Proc) retryFrees() {
	if len(p.freePending) == 0 {
		return
	}
	if !p.ftEnabled() {
		p.dropOldestFrees()
		return
	}
	names := sortedNames(p, p.freePending)
	for _, name := range names {
		o := p.objs[name]
		if o == nil {
			delete(p.freePending, name)
			continue
		}
		if o.pins == 0 && p.clocks.SelfCovered(o.freeableAt) && p.clocks.OthersCovered(o.freeableAt) {
			p.doFree(o)
			delete(p.freePending, name)
		}
	}
	p.putNames(names)
	if !p.cfg.EagerFree && len(p.freePending) > maxFreeBacklog {
		p.forceOldestFrees()
	}
}

// dropOldestFrees is reclamation with fault tolerance off: nothing has to be
// covered first, so the backlog beyond maxFreeBacklog just goes, oldest first.
func (p *Proc) dropOldestFrees() {
	for len(p.freePending) > maxFreeBacklog {
		var oldest *object
		for name := range p.freePending {
			if o := p.objs[name]; o.pins == 0 && (oldest == nil || o.freeableAt < oldest.freeableAt) {
				oldest = o
			}
		}
		if oldest == nil {
			return // everything left is in use
		}
		delete(p.objs, oldest.name)
		delete(p.freePending, oldest.name)
	}
}

// forceOldestFrees sends force-checkpoint messages for backlogged
// freeable objects (modeled cache replacement).
func (p *Proc) forceOldestFrees() {
	for _, name := range sortedKeys(p.freePending) {
		if o := p.objs[name]; o != nil && !o.forcedSent {
			p.forceCheckpoints(o, p.clocks.Laggards(o.freeableAt))
		}
	}
}

// forceCheckpoints asks ranks to checkpoint past o's freeable mark (at most
// once per object), and checkpoints here as well if our own last checkpoint
// does not cover it.
func (p *Proc) forceCheckpoints(o *object, ranks []int) {
	o.forcedSent = true
	for _, j := range ranks {
		p.st.ForceCkptMsgsSent.Add(1)
		if p.rec != nil {
			p.emit(trace.Event{Kind: trace.SamForceSend, Dst: int64(j), Name: uint64(o.name), Aux: o.freeableAt})
		}
		p.send(j, &wire{Kind: kForceCkpt, Name: uint64(o.name), F: o.freeableAt})
	}
	if !p.clocks.SelfCovered(o.freeableAt) {
		p.addTrigger(trigger{kind: 0})
	}
}

// doFree reclaims a freeable main copy and tells checkpoint-copy holders
// to drop theirs ("the checkpoint copy can only be freed when the main
// copy is finally freed").
func (p *Proc) doFree(o *object) {
	delete(p.objs, o.name)
	delete(p.repairPending, o.name)
	p.clocks.Tick()
	for _, h := range p.store.HolderRanks(uint64(o.name)) {
		p.send(h, &wire{Kind: kFreeCkpt, Name: uint64(o.name), Seq: o.committed.seq})
	}
	p.store.Forget(uint64(o.name))
}

// ---- message handlers ----

func (p *Proc) onCkptPriv(w *wire) {
	priv := privImage{seq: w.Seq, body: w.Body}
	if w.Inactive {
		// Provisional: promoted to the committed store by the activation.
		// If the checkpointer dies first, kRecovery drops it and the
		// previous committed state remains authoritative.
		p.privStaging[w.SrcRank] = priv
	} else {
		// Out-of-transaction re-replication (recovery path): committed.
		p.storePriv(w.SrcRank, priv)
	}
	p.ackPiece(w)
}

// storePriv commits rank's private state here unless a newer one is held.
func (p *Proc) storePriv(rank int, priv privImage) {
	if priv.seq >= p.privStore[rank].seq {
		p.privStore[rank] = priv
	}
}

// ackPiece acknowledges a numbered transaction piece — the last inactive one
// its sender addressed to us, so the ack covers the ones before it — whether
// or not the piece was accepted. Receiving and acknowledging checkpoint data
// is never deferred, even while this process runs its own checkpoint (§4.4
// allows it), which keeps concurrent transactions deadlock-free.
func (p *Proc) ackPiece(w *wire) {
	if w.Piece < 0 {
		return
	}
	p.send(w.SrcRank, &wire{Kind: kCkptAck, Seq: w.Seq, Target: w.Piece})
}

// onCkptCopy handles a checkpoint copy of another process's object, a full
// replica of the owner's packed frame: the holder-side freshness rule, then
// two-phase inactive/activate for nonreproducible contents.
func (p *Proc) onCkptCopy(w *wire) {
	o := p.obj(Name(w.Name))
	// A pending copy whose commit is held back behind our own transaction is
	// committed: install it before a newer copy takes its slot.
	if pc := o.pending; pc != nil && slices.Contains(p.deferredActs, activation{from: pc.sender, seq: pc.seq}) {
		p.commitPending(o)
	}
	if img := imageOf(w); p.acceptsCopy(o, img) {
		if w.Inactive {
			o.pending, o.resupply = img, false
		} else {
			p.applyCkptCopy(o, img)
		}
	}
	if w.Inactive {
		p.ackPiece(w)
	}
}

// acceptsCopy is the holder-side freshness rule: whether checkpoint image img
// replaces what this process holds for the object. (The recovering side's
// rule, for competing kRecoverData contributions, is keepNewer.)
func (p *Proc) acceptsCopy(o *object, img *image) bool {
	// Our own live main copy is authoritative over a copy backing our own
	// ownership. A copy naming a different owner is accepted even while we
	// are still the owner: it arises when our own transaction migrates the
	// object away and the placement lands back on us as the old owner.
	if o.isMain && img.owner == p.cfg.Rank {
		return false
	}
	if o.copy == nil {
		return true
	}
	// An object version at least as new as the held copy's wins outright.
	if img.hasMeta && img.meta.Version >= o.copy.meta.Version {
		return true
	}
	// Otherwise — an older version as much as a versionless (value) copy —
	// the owner/sender-time rule decides: a copy backing a different owner
	// than the held one is accepted, as is one no older by checkpoint seq.
	return img.owner != o.copy.owner || img.seq >= o.copy.seq
}

// commitPending installs o's pending copy, whose sender has committed, and
// sends it after a contribution that could not include it (resupply).
func (p *Proc) commitPending(o *object) {
	pc := o.pending
	o.pending = nil
	p.applyCkptCopy(o, pc)
	if o.resupply {
		o.resupply = false
		w := pc.wire(kRecoverData)
		p.send(pc.owner, &w)
	}
}

// applyCkptCopy installs a checkpoint image as the backing copy for its
// owner. The frame lives in the cache and is usable for local reads like
// any cached data — the paper's core efficiency argument.
func (p *Proc) applyCkptCopy(o *object, img *image) {
	// Make the frame usable as a cached copy when we do not hold newer
	// local contents (values are immutable; accumulator copies are as fresh
	// as the owner's last checkpoint — exactly a "recent version"). Only
	// then is it decoded: decodeFrame verified its checksum, and a copy
	// whose body does not decode is not installed. An accumulator copy
	// must not wake a parked UpdateAccum, though: only the migrated main
	// copy grants the lock.
	install := !o.isMain && !o.usable()
	var data interface{}
	if install {
		var err error
		if data, err = codec.Unpack(img.body); err != nil {
			return
		}
	}
	o.invalidatePackCache() // contents now come from the owner's frame
	o.copy = img
	if img.hasMeta {
		o.kind = ft.ObjKind(img.meta.Kind)
	}
	if install {
		o.data = data
		o.state = stPresent
		o.ownerRank = img.owner
		p.serveLocalWaiters(o)
	}
}

func (p *Proc) onCkptAck(w *wire) {
	p.st.CkptAcks.Add(1)
	tx := p.tx
	if tx == nil || w.Seq != tx.seq {
		return
	}
	i := int(w.Target) // acks echo the piece number in Target
	if i < 0 || i >= len(tx.pieces) {
		return
	}
	pc := &tx.pieces[i]
	if pc.w.Piece != i || pc.acked {
		return // not a numbered piece, or its re-sent twin was acked already
	}
	pc.acked = true
	tx.acksNeeded--
	if tx.acksNeeded == 0 {
		p.commitTx()
	}
}

// activation is a checkpointer's commit of its transaction seq, as one of
// its recipients sees it.
type activation struct {
	from int
	seq  int64
}

// applyDeferred performs the activations dispatch held back while a
// checkpoint transaction was open: at its commit, or early when a peer's
// failure makes their effect on what we hold for it matter now.
func (p *Proc) applyDeferred() {
	acts := p.deferredActs
	p.deferredActs = nil
	for _, a := range acts {
		p.onActivate(a)
	}
}

func (p *Proc) onActivate(a activation) {
	// Promote a provisional private state from this checkpointer.
	if st, ok := p.privStaging[a.from]; ok && st.seq == a.seq {
		delete(p.privStaging, a.from)
		p.storePriv(a.from, st)
	}
	names := sortedNames(p, p.objs)
	for _, name := range names {
		o := p.objs[name]
		if o.state == stInactive && o.awaits == a {
			p.activate(o)
		}
		if pc := o.pending; pc != nil && pc.sender == a.from && pc.seq == a.seq {
			p.commitPending(o)
		}
	}
	p.putNames(names)
}

// activate makes contents received inactive usable: their sender committed.
func (p *Proc) activate(o *object) {
	o.state = stPresent
	o.fetchOutstanding = false
	p.serveLocalWaiters(o) // grants a parked local acquire first
	p.serveRemoteWaiters(o)
	if o.kind == ft.KindAccum && o.isMain {
		p.tryMigrate(o)
	}
}

func (p *Proc) onForceCkpt(w *wire) {
	if p.clocks.NeedsForcedCheckpoint(w.SrcRank, w.F) {
		if p.rec != nil {
			p.emit(trace.Event{Kind: trace.SamForceRecv, Src: int64(w.SrcRank), Name: w.Name, Aux: w.F, Note: "ckpt"})
		}
		p.forceReplies = append(p.forceReplies, w.SrcRank)
		p.addForcedTrigger()
		return
	}
	if p.rec != nil {
		p.emit(trace.Event{Kind: trace.SamForceRecv, Src: int64(w.SrcRank), Name: w.Name, Aux: w.F, Note: "covered"})
	}
	p.send(w.SrcRank, &wire{Kind: kForceAck})
}

// addForcedTrigger queues a bare checkpoint marked as forced.
func (p *Proc) addForcedTrigger() {
	if p.tx != nil {
		// The open transaction will cover the requested time at commit.
		p.tx.forced = true
		return
	}
	p.pendingForced = true
	p.addTrigger(trigger{kind: 0})
}

// onFreeCkpt drops the checkpoint copy held for the sender. An owner frees
// only copies its own ledger lists, and those all back its own ownership —
// so a free never touches a copy that names another owner. It must not: a
// holder keeps one copy per object, and a free from a previous owner (sent
// at the commit of the transaction that migrated the object away) can be
// overtaken by the next owner's whole transaction placing a newer copy in
// the same slot; dropping that one would destroy the object's only backup.
func (p *Proc) onFreeCkpt(w *wire) {
	o := p.objs[Name(w.Name)]
	if o == nil {
		return
	}
	if o.pending != nil && o.pending.owner == w.SrcRank {
		o.pending = nil
	}
	if o.copy == nil || o.copy.owner != w.SrcRank {
		return
	}
	o.copy = nil
	// If the entry is nothing but the dropped copy, remove it entirely; if
	// it also serves as a cached copy, it stays like any other cached object.
	if !o.isMain && o.pins == 0 && len(o.waiters) == 0 && o.pending == nil {
		delete(p.objs, Name(w.Name))
	}
}
