package sam

import (
	"fmt"

	"samft/internal/codec"
	"samft/internal/ft"
	"samft/internal/trace"
)

// ---- application commands ----

func (p *Proc) cmdCreateValue(c *cmd) {
	o := p.obj(c.name)
	if o.isMain && o.created && !o.frozen {
		// Idempotent re-create during a recovery replay: the step is
		// deterministic, so the contents match what was restored or
		// already recreated; publishing again is a no-op.
		p.reply(c, nil, nil)
		return
	}
	if o.usable() && !o.isMain {
		p.reply(c, nil, fmt.Errorf("value %v already exists (cached from rank %d)", c.name, o.ownerRank))
		return
	}
	o.kind = ft.KindValue
	o.data = c.obj
	o.state = stPresent
	o.isMain = true
	o.created = true
	o.frozen = false
	o.nonrepro = p.taint.Tainted()
	o.dirty = true
	o.dirtySeq++
	o.accessesDeclared = c.accesses

	// Register with the home so queued requesters find us.
	p.send(p.home(c.name), &wire{Kind: kReg, Name: uint64(c.name)})

	p.serveLocalWaiters(o)
	p.serveRemoteWaiters(o)
	p.reply(c, nil, nil)
}

func (p *Proc) cmdUseValue(c *cmd) {
	p.st.SharedAccesses.Add(1)
	o := p.obj(c.name)
	if o.usable() {
		p.useContents(o, c)
		return
	}
	p.st.Misses.Add(1)
	p.ensureFetch(o, kReadReq)
	o.waiters = append(o.waiters, c)
	p.park(c)
}

// useContents answers a UseValue of a usable value with its contents,
// decoding them again if the copy lent its storage, and records the access.
func (p *Proc) useContents(o *object, c *cmd) {
	data, err := p.contents(o)
	if err != nil {
		p.reply(c, nil, err)
		return
	}
	p.grantUse(o)
	p.reply(c, data, nil)
}

// grantUse records one access on a locally available value. A cached copy
// notes the step that reads it and cannot lend while the access lasts.
func (p *Proc) grantUse(o *object) {
	o.pins++
	if o.isMain {
		o.accessesDone++
		p.checkExhausted(o)
	} else {
		o.unreportedUses++
		o.usedAt = p.stepsDone
		o.unlend()
	}
}

func (p *Proc) cmdDoneValue(c *cmd) {
	o := p.objs[c.name]
	if o == nil || o.pins <= 0 {
		p.reply(c, nil, fmt.Errorf("DoneValue(%v) without UseValue", c.name))
		return
	}
	o.pins--
	if o.pins == 0 && o.freeable {
		p.retryFrees()
	}
	if o.pins == 0 && !o.isMain && o.kind == ft.KindValue {
		p.offerLend(o)
	}
	p.reply(c, nil, nil)
}

func (p *Proc) cmdFreeValue(c *cmd) {
	o := p.objs[c.name]
	if o == nil || !o.isMain {
		p.reply(c, nil, fmt.Errorf("FreeValue(%v): not the owner", c.name))
		return
	}
	if !o.freeable {
		p.markFreeable(o)
	}
	p.reply(c, nil, nil)
}

func (p *Proc) cmdRenameValue(c *cmd) {
	o := p.objs[c.name]
	if o == nil || !o.isMain || !o.created {
		p.reply(c, nil, fmt.Errorf("RenameValue(%v): not the owner of a created value", c.name))
		return
	}
	// Renaming is replay-safe, so it does not taint: the frozen old entry
	// is retained until this process checkpoints past the rename (§4.3's
	// free rule), so a replayed RenameValue finds it freeable and returns
	// the identical contents; once the entry can be freed, no replay can
	// reach the rename again. Tainting here would also deadlock the
	// producer-consumer cycle rename exists for: the producer parks on
	// the consumers' uses while the consumers' fetches of a tainted value
	// would wait for the producer's next boundary.
	if o.renameWaiter != nil {
		p.reply(c, nil, fmt.Errorf("RenameValue(%v): rename already in progress", c.name))
		return
	}
	if o.freeable {
		p.completeRename(o, c)
		return
	}
	o.renameWaiter = c
	p.park(c)
}

// completeRename hands the application a private copy of the exhausted
// value's contents to update and publish under the new name. The old
// entry is frozen: it keeps the final contents for recovery until the
// lazy-free protocol reclaims it.
func (p *Proc) completeRename(o *object, c *cmd) {
	cp, err := codec.DeepCopy(o.data)
	if err != nil {
		p.reply(c, nil, fmt.Errorf("rename %v: %w", o.name, err))
		return
	}
	o.frozen = true
	p.reply(c, cp, nil)
}

func (p *Proc) cmdPrefetch(c *cmd) {
	o := p.obj(c.name)
	if !o.usable() {
		p.ensureFetch(o, kReadReq)
	}
	p.reply(c, nil, nil)
}

func (p *Proc) cmdPush(c *cmd) {
	o := p.objs[c.name]
	if o == nil {
		// Push is a delivery hint. No entry means the value this process
		// created has already been reclaimed — every declared use was
		// reported (consumers fetched it themselves) while the creator was
		// still issuing its pushes — so there is nothing left to deliver.
		p.reply(c, nil, nil)
		return
	}
	if !o.isMain || !o.created {
		p.reply(c, nil, fmt.Errorf("Push(%v): not the owner of a created value", c.name))
		return
	}
	p.deliver(o, kObjData, c.rank)
	p.reply(c, nil, nil)
}

// ---- helpers ----

// unstable reports whether sending this object requires a checkpoint
// first: its contents are nonreproducible and not yet covered by a
// committed checkpoint (§4.1).
func (p *Proc) unstable(o *object) bool {
	return p.ftEnabled() && o.nonrepro && o.dirty
}

// ensureFetch asks the name's home for what a local access to o is waiting
// for — its contents (kReadReq) or its main copy (kAccAcq) — unless a request
// is already outstanding.
func (p *Proc) ensureFetch(o *object, kind int) {
	if o.fetchOutstanding {
		return
	}
	if kind == kReadReq && p.rec != nil {
		p.emit(trace.Event{Kind: trace.SamFetch, Name: uint64(o.name), Dst: int64(p.home(o.name))})
	}
	p.request(o, kind)
}

// request issues — or, after a failure may have lost it, re-issues — o's
// outstanding request (kReadReq or kAccAcq) to the name's home.
func (p *Proc) request(o *object, kind int) {
	o.fetchOutstanding = true
	o.reqKind = kind
	p.send(p.home(o.name), &wire{Kind: kind, Name: uint64(o.name)})
}

// serveRead serves a read — a value fetch or a chaotic read — where the home
// believes the main copy to be.
func (p *Proc) serveRead(name Name, requester int) {
	o := p.obj(name)
	switch {
	case !o.isMain && o.usable() && o.ownerRank >= 0 && o.ownerRank != p.cfg.Rank:
		// The accumulator moved on; this is the stale version handOff left
		// behind, and the read follows it. The kAccData left for the successor
		// first and a pair of processes sees messages in order, so the main
		// copy is there by then (the read parks below while it is inactive);
		// each hop retraces one real migration, so the read cannot circle.
		p.send(o.ownerRank, &wire{Kind: kReadFwd, Name: uint64(name), Target: requester})
	case !o.created || o.state != stPresent || o.accLocked:
		// Not (re)created yet, mid-recovery, awaiting its activation, or being
		// mutated under the update lock: serveRemoteWaiters replays the read.
		o.remoteWaiters = enqueue(o.remoteWaiters, requester)
	default:
		p.deliver(o, kObjData, requester)
	}
}

// deliver gets an owned object's contents to rank as kind: now, or — when
// the contents are nonreproducible and uncovered (§4.1) — with the next
// checkpoint transaction, unless the one that is open already takes the value
// there. Delivering to ourselves is a no-op: local waiters are served where
// the contents become usable.
func (p *Proc) deliver(o *object, kind, rank int) {
	if rank == p.cfg.Rank {
		return
	}
	if !p.unstable(o) {
		p.sendObject(o, kind, rank, nil)
		return
	}
	if !p.alreadyCarried(o, rank) {
		p.addTrigger(trigger{kind: kind, name: o.name, target: rank})
	}
}

// sendObject is the one place an owned object's contents leave for a
// consumer: a read reply or push (kObjData) or an ownership transfer
// (kAccData), always with the owner's metadata. With tx nil the send is
// immediate; otherwise startTx is planning tx and the contents join it as an
// inactive piece, unusable at the receiver until the activation (§4.4 step
// 4). A value, immutable once created, is packed once however often it is
// served (packObject's snapshot cache). A value's send is recorded for a
// replacement's replay (noteSent). It returns the length of the contents.
func (p *Proc) sendObject(o *object, kind, rank int, tx *ckptTx) int {
	migration := kind == kAccData
	w := wire{Kind: kind, Name: uint64(o.name), Target: rank, Meta: o.meta(), HasMeta: true}
	if migration {
		// An accumulator checkpointed in this transaction travels as the
		// image steps 2–3 just replicated (nil when fault tolerance is off).
		w.Body = o.committed.body
	}
	if w.Body == nil {
		w.Body = p.packObject(o)
	}
	p.st.ObjectSends.Add(1)
	if migration && p.rec != nil {
		p.emit(trace.Event{Kind: trace.SamMigrateOut, Name: uint64(o.name), Dst: int64(rank), Bytes: len(w.Body)})
	}
	if o.kind == ft.KindValue && p.ftEnabled() {
		p.noteSent(o, rank)
	}
	if tx == nil {
		p.send(rank, &w)
		if migration {
			p.handOff(o, rank)
		}
		return len(w.Body)
	}
	p.st.CkptCausingSends.Add(1)
	w.Inactive, w.Seq = true, tx.seq
	if migration {
		// Ownership commits with the transaction (commitTx hands off).
		o.pendingMove = rank // block further local locks until commit
	}
	tx.add(rank, &w)
	return len(w.Body)
}

// serveLocalWaiters wakes application commands parked on this object.
func (p *Proc) serveLocalWaiters(o *object) {
	if !o.usable() {
		return
	}
	waiters := o.waiters
	o.waiters = nil
	for _, c := range waiters {
		if c.op == opUpdateAccum && !o.isMain {
			// A cached version (checkpoint copy or snapshot) cannot grant
			// the update lock; keep waiting for the migrated main copy.
			o.waiters = append(o.waiters, c)
			continue
		}
		// Unparked before the grant, which may start a transaction.
		if p.appParked == c {
			p.appParked = nil
		}
		switch c.op {
		case opUseValue:
			p.useContents(o, c)
		case opUpdateAccum:
			p.grantAccumLock(o, c)
		case opChaoticRead:
			p.serveChaoticLocal(o, c)
		default:
			p.reply(c, nil, fmt.Errorf("unexpected waiter op %d on %v", c.op, o.name))
		}
	}
}

// serveRemoteWaiters replays the reads serveRead parked, wherever what made
// it park may have ended: creation, activation, restore, release of the
// update lock. A read that still cannot be served parks again.
func (p *Proc) serveRemoteWaiters(o *object) {
	rw := o.remoteWaiters
	o.remoteWaiters = nil
	for _, r := range rw {
		p.serveRead(o.name, r)
	}
}

// checkExhausted marks a value freeable once all declared accesses have
// occurred.
func (p *Proc) checkExhausted(o *object) {
	if o.isMain && !o.freeable && o.accessesDeclared > 0 && o.accessesDone >= o.accessesDeclared {
		p.markFreeable(o)
	}
}

// noteUse moves an object's unreported local uses into the batched
// per-owner notice map. An owner's map lives as long as the process: the
// flush empties it.
func (p *Proc) noteUse(o *object) {
	if o.unreportedUses == 0 || o.isMain || o.ownerRank < 0 {
		return
	}
	m := p.useNotices[o.ownerRank]
	if m == nil {
		m = make(map[Name]int64)
		p.useNotices[o.ownerRank] = m
	}
	m[o.name] += o.unreportedUses
	o.unreportedUses = 0
}

// flushUseNotices sends batched use reports to owners (one message per
// owner per boundary, in rank order), keeping the hot access path free of
// communication.
func (p *Proc) flushUseNotices() {
	for _, o := range p.objs {
		p.noteUse(o)
	}
	for owner, m := range p.useNotices {
		if len(m) == 0 {
			continue
		}
		names := sortedNames(p, m)
		w := wire{Kind: kValUsed, Names: p.useNames[:0], Counts: p.useCounts[:0]}
		for _, n := range names {
			w.Names = append(w.Names, uint64(n))
			w.Counts = append(w.Counts, m[n])
		}
		p.putNames(names)
		clear(m)
		p.useNames, p.useCounts = w.Names, w.Counts
		p.send(owner, &w)
	}
}

// ---- message handlers ----

// setOwner is the one writer of a directory entry's owner at this home — at
// registration, a completed migration, a survivor's report rebuilding the
// directory a restarted home lost, an orphan-ownership grant, our own restored
// main copy — and routes what was waiting for one: parked reads, acquisitions,
// and on a change of owner the reads kept for a replaced registrant.
func (p *Proc) setOwner(name Name, owner int) {
	d := p.dirEnt(name)
	reads := d.pendingRead
	if d.known && owner != d.owner {
		reads = append(reads, d.unbacked...)
	}
	d.known, d.owner, d.ownerTID = true, owner, p.ranks[owner]
	d.pendingRead, d.unbacked = nil, nil
	for _, r := range reads {
		p.onReadReq(name, r)
	}
	p.pumpAccumQueue(d)
}

// onReadReq routes a read at the name's home: to the owner, or into the
// directory's queue until setOwner names one.
func (p *Proc) onReadReq(name Name, requester int) {
	d := p.dirEnt(name)
	if !d.known {
		d.pendingRead = enqueue(d.pendingRead, requester)
		return
	}
	if p.ranks[d.owner] != d.ownerTID {
		// The incarnation that registered the name was replaced. If no
		// checkpoint covered the value, the replay can create it elsewhere:
		// keep the read until the name is registered again.
		d.unbacked = enqueue(d.unbacked, requester)
	}
	p.send(d.owner, &wire{Kind: kReadFwd, Name: uint64(name), Target: requester})
}

// onObjData installs received contents — a read reply or an unsolicited
// push — as a cached copy. A value is immutable, so its first copy wins; a
// later snapshot of an accumulator replaces an earlier one; neither
// overwrites our own main copy, which is fresher than anything sent.
func (p *Proc) onObjData(w *wire) {
	if w.Inactive {
		p.ackPiece(w)
	}
	o := p.obj(Name(w.Name))
	kind := ft.ObjKind(w.Meta.Kind)
	if o.isMain || (kind == ft.KindValue && o.usable()) {
		o.fetchOutstanding = false
		return
	}
	data, err := p.decodeCopy(w.Body)
	if err != nil {
		p.undecodable(o, err)
		return
	}
	o.kind = kind
	o.data = data
	o.ownerRank = w.SrcRank
	o.keepPacked(w.Body)
	if p.rec != nil {
		p.emit(trace.Event{Kind: trace.SamFetchData, Name: w.Name, Src: int64(w.SrcRank), Bytes: len(w.Body)})
	}
	p.arrived(o, w)
}

// undecodable answers the commands parked on o with err: contents arrived
// for them, passed their checksum, and do not decode — a type this process
// has not registered, say. Nothing would re-issue the fetch, so the reader
// would otherwise wait until the run times out. A later access asks again.
func (p *Proc) undecodable(o *object, err error) {
	o.fetchOutstanding = false
	waiters := o.waiters
	o.waiters = nil
	for _, c := range waiters {
		p.reply(c, nil, fmt.Errorf("contents of %v: %w", o.name, err))
	}
}

// arrived is the one tail of contents arriving for o, as a cached copy
// (onObjData) or as the main copy (onAccData).
func (p *Proc) arrived(o *object, w *wire) {
	if w.Inactive {
		// Usable only once the sender's checkpoint commits, and until then
		// the request this answers is still outstanding: if the sender dies
		// first, dropProvisionalFrom reverts the entry and re-issues it.
		o.state = stInactive
		o.awaits = activation{from: w.SrcRank, seq: w.Seq}
		return
	}
	o.fetchOutstanding = false
	o.state = stPresent
	p.serveLocalWaiters(o) // grants a parked local acquire first
	p.serveRemoteWaiters(o)
}

func (p *Proc) onValUsed(w *wire) {
	for i, nm := range w.Names {
		if i >= len(w.Counts) {
			break
		}
		o := p.objs[Name(nm)]
		if o == nil || !o.isMain {
			continue
		}
		o.accessesDone += w.Counts[i]
		p.noteReported(o, w.SrcRank)
		p.checkExhausted(o)
	}
}
