package sam

import (
	"slices"
	"strconv"

	"samft/internal/ckptstore"
	"samft/internal/codec"
	"samft/internal/ft"
	"samft/internal/netsim"
	"samft/internal/pvm"
	"samft/internal/trace"
)

// This file implements §4.5: failure detection via PVM notifications, the
// coordinator-driven restart of the failed process under a fresh task id,
// and the restoration of its private state, owned objects, directory
// information, and checkpoint copies by the surviving processes.

// incarnation is the state only a replacement process has (cfg.Recovering):
// what it is being rebuilt from, and the bookkeeping of its own recovery. It
// lives as long as the process does — duplicates of its recovery traffic can
// arrive long after it has resumed.
//
// Two independent predicates gate the handlers, and neither implies the
// other: restoring (the private state and the objects it lists have not all
// arrived; the application has not resumed) and orphansDecided (every
// survivor's contribution is in, so ownership of objects absent from the
// private state has been arbitrated).
type incarnation struct {
	restoring      bool
	orphansDecided bool
	restorec       chan restoreResult

	// The restore stash, released when restoring ends: the newest private
	// state contributed so far (decoded, and as received for
	// re-replication), the holders that voted "never checkpointed", and the
	// best image per object (keepNewer).
	priv       *ft.PrivateState
	privImg    privImage
	freshVotes map[int]bool
	data       map[Name]*image

	// ownerConfirmed / unconfirmedData resolve images of objects absent
	// from the private state (acquired after the last checkpoint): a main
	// copy is installed only once the home or the previous holder confirms
	// this process owns it.
	ownerConfirmed  map[Name]bool
	unconfirmedData map[Name]*image
	orphanHints     map[Name]int64 // name -> max hinted version pointing at us
	// pendingOwnerQueries defers answering other ranks' orphan-ownership
	// queries until this home's directory has been rebuilt from every
	// survivor's reports.
	pendingOwnerQueries []ownerQuery
	// recoverInstalled marks names whose image has already been installed
	// this incarnation. Re-solicited contributions (a survivor dying
	// mid-recovery makes its replacement contribute again) can deliver
	// duplicates long after the object migrated away; installing those
	// would fork the object.
	recoverInstalled map[Name]bool
	finsGot          map[int]bool // survivors whose recovery contribution arrived
	// recoverContrib records which rank contributed which copy of each
	// recovered object, so the rebuilt ledger reflects the holders
	// that actually exist rather than a recomputed placement.
	recoverContrib map[Name]map[int]*image
	// pendingContrib defers our contributions to other restarted ranks
	// while our own state is still being restored.
	pendingContrib map[int]bool
}

func newIncarnation() *incarnation {
	return &incarnation{
		restoring:        true,
		restorec:         make(chan restoreResult, 1),
		freshVotes:       make(map[int]bool),
		data:             make(map[Name]*image),
		ownerConfirmed:   make(map[Name]bool),
		unconfirmedData:  make(map[Name]*image),
		orphanHints:      make(map[Name]int64),
		recoverInstalled: make(map[Name]bool),
		finsGot:          make(map[int]bool),
		recoverContrib:   make(map[Name]map[int]*image),
		pendingContrib:   make(map[int]bool),
	}
}

// restoring reports whether this process is a replacement whose own state
// has not been restored yet: its tables are empty and what it would send
// for them is not to be trusted.
func (p *Proc) restoring() bool { return p.inc != nil && p.inc.restoring }

// ownerQuery is a recovering process's claim, put to the name's home, that
// the most recent committed migration of an orphan left the main copy there.
type ownerQuery struct {
	from int
	name Name
}

type restoreResult struct {
	fresh bool
	steps int64
	snap  []byte
}

// awaitRestore blocks the application goroutine until the runtime has
// assembled the recovered state.
func (p *Proc) awaitRestore() restoreResult {
	select {
	case r := <-p.inc.restorec:
		return r
	case <-p.deadc:
		panic(procKilled{p.cfg.Rank})
	}
}

// ---- failure detection ----

// handleTaskExit processes a PVM task-exit notification. Notifications
// may be duplicated (a chaotic network, or both the direct notification
// and a relayed kFailed); all paths funnel into the idempotent
// deadRanks/dispatchFailures machinery.
func (p *Proc) handleTaskExit(dead netsim.TID) {
	rank := -1
	for r, tid := range p.ranks {
		if tid == dead {
			rank = r
			break
		}
	}
	if rank < 0 || rank == p.cfg.Rank {
		return // stale incarnation or self: ignore
	}
	p.deadRanks[rank] = dead
	p.dispatchFailures()
}

func (p *Proc) onFailed(w *wire) {
	rank := w.Target
	if rank < 0 || rank >= len(p.ranks) || rank == p.cfg.Rank {
		return
	}
	dead := netsim.TID(w.Seq)
	if p.ranks[rank] != dead {
		return // stale report: the table already moved past that incarnation
	}
	p.deadRanks[rank] = dead
	p.dispatchFailures()
}

// liveCoordinator picks the recovery coordinator for a failed rank: the
// lowest rank not known dead (and not the failed rank itself). This
// generalizes the paper's distinguished-process rule to overlapping
// failures: when the coordinator itself dies, the next rank in line
// observes both deaths and takes over. Different processes may briefly
// disagree (failure knowledge is local), which is safe because restarts
// are idempotent in the harness (keyed on the dead incarnation's tid).
func (p *Proc) liveCoordinator(failed int) int {
	for r := 0; r < len(p.ranks); r++ {
		if r == failed {
			continue
		}
		if _, dead := p.deadRanks[r]; dead {
			continue
		}
		return r
	}
	return p.cfg.Rank
}

// dispatchFailures drives recovery for every known-dead, not-yet-replaced
// incarnation: start it here when this process is the (live) coordinator,
// otherwise relay the report. Entries persist until the replacement
// incarnation is installed, so discovering a coordinator's death later
// re-dispatches the failures it was responsible for — the takeover path.
func (p *Proc) dispatchFailures() {
	for _, rank := range sortedKeys(p.deadRanks) {
		dead := p.deadRanks[rank]
		coord := p.liveCoordinator(rank)
		if coord == p.cfg.Rank {
			p.startRecovery(rank, dead)
			continue
		}
		k := failKey{rank: rank, tid: dead, coord: coord}
		if p.relayedFail[k] {
			continue
		}
		p.relayedFail[k] = true
		// The report is now in the coordinator's hands, so its death is our
		// business even if the notification for it never reached us (exit
		// notifications can be lost, and a coordinator killed together with
		// the rank it should restart would swallow this report silently).
		// Re-arming the watch answers at once when it is already dead.
		p.task.Notify(p.ranks[coord])
		p.send(coord, &wire{Kind: kFailed, Target: rank, Seq: int64(dead)})
	}
}

// startRecovery runs on a coordinator: restart the failed rank and tell
// everyone. Duplicate reports are filtered by comparing the dead tid with
// the current rank table — once a restart happened the table moved on.
// Competing coordinators (possible while failure knowledge differs) are
// resolved by the harness: Respawn is idempotent per dead incarnation.
func (p *Proc) startRecovery(rank int, dead netsim.TID) {
	if p.ranks[rank] != dead {
		return // already recovered (or the report is stale)
	}
	if p.cfg.Respawn == nil {
		return // harness does not support recovery (tests without it)
	}
	newTID := p.cfg.Respawn(rank, dead, p.task.ClockUS())
	if newTID == pvm.NoTID {
		return // harness is shutting down
	}
	p.noteIncarnation(rank, newTID, false)
	for r := range p.ranks {
		if r == p.cfg.Rank || r == rank {
			continue
		}
		p.send(r, &wire{Kind: kRecovery, Target: rank, NewTID: int(newTID)})
	}
}

// onRecovery handles the announcement that rank Target restarted as NewTID:
// the coordinator's, or the restarted process's own (SrcRank == Target). The
// latter overrides the sent-once filter — the requester is telling us it is
// still missing contributions, e.g. because an earlier one went to a previous
// incarnation that died with it.
func (p *Proc) onRecovery(w *wire) {
	p.noteIncarnation(w.Target, netsim.TID(w.NewTID), w.SrcRank == w.Target)
}

// noteIncarnation is each surviving process's part of §4.5, however it
// learns that rank restarted as newTID (the coordinator's broadcast, the new
// process's own request, or being the coordinator): update the rank table if
// this is news, then supply the new process with everything it needs — once
// per incarnation, or again when resend is set. TIDs increase monotonically,
// so ordering resolves races between competing announcements for one rank.
func (p *Proc) noteIncarnation(rank int, newTID netsim.TID, resend bool) {
	if rank < 0 || rank >= len(p.ranks) || rank == p.cfg.Rank {
		return
	}
	if newTID < p.ranks[rank] {
		return // stale: an incarnation we already outlived
	}
	if newTID > p.ranks[rank] {
		p.installNewIncarnation(rank, newTID)
	}
	if resend {
		delete(p.contributedTo, rank)
	}
	p.contributeIfNeeded(rank)
}

// installNewIncarnation switches the rank table to a restarted process's
// new tid and reconciles every piece of local state that referred to the
// dead incarnation.
func (p *Proc) installNewIncarnation(rank int, newTID netsim.TID) {
	p.ranks[rank] = newTID
	delete(p.deadRanks, rank)
	p.task.Notify(newTID)

	// Stamps sent to the dead incarnation may be lost with it; the next
	// piggyback to the replacement must carry the full T vector.
	p.clocks.ResetPeer(rank)

	// Activations held back behind our own open transaction are commits we
	// have already been told of. Apply them before judging what is
	// provisional and what we hold for the restarted process: the private
	// state or checkpoint copy they commit may be exactly what it needs,
	// and a checkpointer that has committed will not send it again.
	p.applyDeferred()

	// Drop everything provisional from the failed process's uncommitted
	// checkpoint: it recovers from its last *committed* state.
	p.dropProvisionalFrom(rank)

	// Whatever committed checkpoint copies the dead incarnation held are
	// gone with its memory: strike it from the coverage ledger and queue
	// the affected objects for proactive repair (run when we contribute
	// to the replacement's recovery, once our own tables are usable).
	for _, name := range p.store.DropRank(rank) {
		p.repairPending[Name(name)] = true
	}

	// If this process is itself mid-recovery, the failed rank's
	// contribution — including its kRecoverFin — may have been lost with
	// it (sent to our current incarnation or never sent at all). Ask the
	// replacement to contribute, re-deriving the fin quorum from the live
	// incarnation set instead of waiting forever on a ghost.
	inc := p.inc
	if inc != nil && (inc.restoring || !inc.orphansDecided) {
		p.send(rank, &wire{Kind: kRecovery, Target: p.cfg.Rank, NewTID: int(p.task.TID())})
	}

	// Owner queries answered by nobody: if the home of a still-unresolved
	// hint died (possibly with our query in its mailbox), ask its
	// replacement once it is up.
	if inc != nil && inc.orphansDecided {
		for _, name := range sortedKeys(inc.orphanHints) {
			if p.home(name) == rank && !inc.ownerConfirmed[name] {
				p.sendOwnerQuery(name)
			}
		}
		for _, name := range sortedKeys(inc.unconfirmedData) {
			if p.home(name) == rank && !inc.ownerConfirmed[name] {
				p.sendOwnerQuery(name)
			}
		}
	}
}

// contributeIfNeeded sends this process's recovery contribution to a
// restarted rank's current incarnation, at most once per incarnation. A
// process still restoring its own state defers: its tables are empty
// until checkRestoreComplete, and a premature kRecoverFin would assert a
// contribution that never happened.
func (p *Proc) contributeIfNeeded(rank int) {
	cur := p.ranks[rank]
	if p.contributedTo[rank] == cur {
		return
	}
	if p.restoring() {
		p.inc.pendingContrib[rank] = true
		return
	}
	p.contributedTo[rank] = cur
	p.contributeRecovery(rank)
}

// contributeRecovery supplies a restarted process with everything this
// survivor holds for it, ending with kRecoverFin.
func (p *Proc) contributeRecovery(rank int) {
	// Private state of the failed process.
	if priv, ok := p.privStore[rank]; ok {
		p.send(rank, &wire{Kind: kRecoverPriv, Body: priv.body, Seq: priv.seq})
	} else if slices.Contains(ckptstore.PrivateStateRanks(rank, len(p.ranks), p.cfg.Degree), p.cfg.Rank) {
		p.send(rank, &wire{Kind: kRecoverPriv, Fresh: true})
	}

	// Re-replicate our own private state if its copy lived on the failed
	// process (guards the window until our next checkpoint).
	if p.lastPriv.body != nil && slices.Contains(p.privHolders, rank) {
		p.send(rank, &wire{Kind: kCkptPriv, Body: p.lastPriv.body, Seq: p.lastPriv.seq, Piece: -1})
	}

	for _, name := range sortedKeys(p.objs) {
		o := p.objs[name]
		// Checkpoint copies whose main copy was at the failed process:
		// restore them (the new process again holds the main copy).
		if o.copy != nil && o.copy.owner == rank {
			w := o.copy.wire(kRecoverData)
			p.send(rank, &w)
		}
		// A copy placed for a migration to the failed process, still pending:
		// it follows at its sender's commit, maybe the only one there is.
		if pc := o.pending; pc != nil && pc.owner == rank && pc.sender != rank {
			o.resupply = true
		}
		if o.isMain && o.created && !o.inDoubt() && p.home(o.name) == rank {
			// Directory information homed at the failed process — not for a
			// migration in doubt, which may not have committed. (Main
			// copies whose checkpoint copies died with it are re-supplied
			// by the ledger-driven repair pass below, from the holders that
			// actually exist rather than a recomputed placement.)
			p.send(rank, &wire{Kind: kDirReport, Name: uint64(o.name)})
		}
		// As a previous holder of an accumulator whose last outbound
		// migration went to the failed process, hint its ownership with
		// the version at that migration. The hint may be stale (ownership
		// may have moved on); the new process only believes the hints if
		// no live process claims the main copy.
		if o.kind == ft.KindAccum && !o.isMain && o.ownerRank == rank && o.usable() {
			p.send(rank, &wire{Kind: kOwnerHint, Name: uint64(o.name), Meta: ft.ObjectMeta{Version: o.version}, HasMeta: true})
		}
		// Requests outstanding to anyone are re-issued; the failed process
		// may have lost them (queued at its directory or owner role).
		if o.fetchOutstanding && o.reqKind != 0 {
			p.request(o, o.reqKind)
		}
	}

	// Re-drive accumulator migration grants that were addressed to the
	// failed owner (lost with it); the restored owner replays the
	// release-and-migrate. As the home, also confirm to the new process
	// which objects it owns — recovery data for objects acquired after
	// its last checkpoint is only installed once confirmed.
	for _, name := range sortedKeys(p.dir) {
		d := p.dir[name]
		if d.known && d.owner == rank {
			p.send(rank, &wire{Kind: kOwnerReport, Name: uint64(d.name)})
		}
		if d.grantInFlight && d.owner == rank {
			p.send(rank, &wire{Kind: kAccGrant, Name: uint64(d.name), Target: d.grantTarget})
		}
	}

	// Abort-and-restart our in-flight checkpoint pieces addressed to the
	// failed process: even acked pieces died with its memory, so all are
	// re-sent to the new incarnation (duplicate acks are filtered by
	// piece number).
	if p.tx != nil {
		for i := range p.tx.pieces {
			pc := &p.tx.pieces[i]
			if pc.rank == rank {
				p.send(rank, &pc.w)
			}
		}
	}

	// Proactively restore coverage for our own objects whose copies died
	// with the failed incarnation (queued by installNewIncarnation's
	// ledger DropRank). The repair copies may target the restarted rank
	// or, under spread placement, any other live rank.
	p.repairCoverage()

	// Everything this survivor contributes has been sent; the new process
	// decides orphan ownership once all contributions are in.
	p.send(rank, &wire{Kind: kRecoverFin})
}

// dropProvisionalFrom discards uncommitted checkpoint state received from
// a process that failed before activating it: the staged private state,
// staged checkpoint copies, and inactive data objects. Fetches satisfied
// only by dropped inactive data are re-issued. An accumulator that migrated
// here is kept in doubt instead: the sender may have committed — told the
// home — before it died, and then no other copy of those contents exists.
// The home settles it — a home learns ownership only from committed
// migrations: its grant to pass the accumulator on (handleGrant, or one
// already here) or its confirmation of the re-issued acquisition
// (onOwnerReport) activates the copy; an uncommitted migration is re-driven
// and replaces it.
func (p *Proc) dropProvisionalFrom(rank int) {
	delete(p.privStaging, rank)
	for _, name := range sortedKeys(p.objs) {
		o := p.objs[name]
		if o.pending != nil && o.pending.sender == rank {
			o.pending = nil
		}
		if o.state != stInactive || o.awaits.from != rank {
			continue
		}
		if o.isMain {
			o.awaits = activation{from: -1} // no activation will come
			if o.pendingMove >= 0 {
				p.activate(o) // the home's grant came first: its record names us
			} else {
				p.request(o, kAccAcq)
			}
			continue
		}
		// Revert to absent and re-drive the request so the restored
		// process serves it again after its replay.
		o.state = stAbsent
		o.data = nil
		o.isMain = false
		o.created = false
		o.invalidatePackCache()
		if len(o.waiters) > 0 && o.fetchOutstanding && o.reqKind != 0 {
			p.request(o, o.reqKind)
		}
	}
}

// ---- recovering-process side ----

func (p *Proc) onRecoverPriv(w *wire) {
	inc := p.inc
	if !inc.restoring {
		return
	}
	if w.Fresh {
		inc.freshVotes[w.SrcRank] = true
		p.checkRestoreComplete()
		return
	}
	if inc.priv == nil || w.Seq > inc.privImg.seq {
		v, err := codec.Unpack(w.Body)
		if err != nil {
			return
		}
		priv, ok := v.(*ft.PrivateState)
		if !ok {
			return
		}
		inc.priv = priv
		inc.privImg = privImage{seq: w.Seq, body: w.Body}
	}
	p.checkRestoreComplete()
}

func (p *Proc) onRecoverData(w *wire) {
	inc, img := p.inc, imageOf(w)
	p.noteRecoverContrib(img)
	if inc.restoring {
		keepNewer(inc.data, img)
		p.checkRestoreComplete()
		return
	}
	// Late or post-restore arrival (e.g. an accumulator acquired after the
	// failed process's last checkpoint): install only once ownership is
	// confirmed — a stale checkpoint copy naming us as owner must not fork
	// the object (the real main may be alive elsewhere).
	p.stashOrInstall(img)
}

// stashOrInstall installs the image of an object missing from the private
// state once (and only once) its ownership is confirmed.
func (p *Proc) stashOrInstall(img *image) {
	if p.inc.recoverInstalled[img.name] {
		// Already restored once this incarnation. The object may since
		// have migrated away (isMain is false again), so a duplicate
		// contribution must not re-install it.
		return
	}
	if o := p.objs[img.name]; o != nil && o.isMain && o.created {
		return
	}
	if p.inc.ownerConfirmed[img.name] {
		p.installRecoveredMain(img, nil)
		return
	}
	keepNewer(p.inc.unconfirmedData, img)
}

// keepNewer is the recovering-side freshness rule: best holds the best
// contributed image seen so far per name, and img replaces the entry for its
// name unless that one is newer. When both carry metadata the object version
// alone decides; otherwise a contribution from a different survivor wins, as
// does one no older by checkpoint seq. (The holder side's rule, for incoming
// checkpoint copies, is acceptsCopy.)
func keepNewer(best map[Name]*image, img *image) {
	prev := best[img.name]
	switch {
	case prev == nil:
	case img.hasMeta && prev.hasMeta:
		if img.meta.Version < prev.meta.Version {
			return
		}
	case img.sender == prev.sender && img.seq < prev.seq:
		return
	}
	best[img.name] = img
}

// onOwnerReport records that a surviving home asserts we own the named
// object (authoritative: homes learn ownership only from committed
// migrations), and installs any stashed recovery data.
func (p *Proc) onOwnerReport(w *wire) {
	name := Name(w.Name)
	if o := p.objs[name]; o != nil && o.inDoubt() {
		p.activate(o) // the migration committed
	}
	if p.inc == nil {
		return
	}
	if p.rec != nil {
		p.emit(trace.Event{Kind: trace.SamOwnerGrant, Name: w.Name, Src: int64(w.SrcRank)})
	}
	p.inc.ownerConfirmed[name] = true
	if img, ok := p.inc.unconfirmedData[name]; ok {
		delete(p.inc.unconfirmedData, name)
		p.installRecoveredMain(img, nil)
		p.repairCoverage()
	}
}

// onOwnerHint records a version-stamped claim that an object's last known
// migration pointed at this process. Hints are only believed after every
// survivor has reported and no live process claims the main copy.
func (p *Proc) onOwnerHint(w *wire) {
	if p.inc.orphansDecided {
		// A re-sent contribution's duplicate: too late to count, and kept it
		// would be queried again, as unresolved, when the home is replaced.
		return
	}
	name := Name(w.Name)
	if w.Meta.Version >= p.inc.orphanHints[name] {
		p.inc.orphanHints[name] = w.Meta.Version
	}
	p.decideOrphans()
}

func (p *Proc) onRecoverFin(w *wire) {
	p.inc.finsGot[w.SrcRank] = true
	p.decideOrphans()
}

// decideOrphans resolves ownership of objects that were migrating around
// this process's death and are absent from its private state. It runs
// once, after every peer's recovery contribution has arrived: if no
// live process claimed an object's main copy (via kDirReport / its own
// operation), the most recent committed migration pointed here, so this
// process owns it. The quorum is per rank, not per incarnation: when a
// contributor dies before its kRecoverFin lands, installNewIncarnation
// re-solicits from the replacement (its own kRecovery), so the fin set is
// effectively re-derived from the live incarnation set.
func (p *Proc) decideOrphans() {
	inc := p.inc
	if inc.orphansDecided || len(inc.finsGot) < len(p.ranks)-1 {
		return
	}
	inc.orphansDecided = true
	names := make(map[Name]bool, len(inc.orphanHints)+len(inc.unconfirmedData))
	for n := range inc.orphanHints {
		names[n] = true
	}
	for n := range inc.unconfirmedData {
		names[n] = true
	}
	if p.rec != nil {
		p.emit(trace.Event{Kind: trace.SamRecDir, Aux: int64(len(names))})
	}
	for _, name := range sortedKeys(names) {
		if o := p.objs[name]; o != nil && o.isMain && o.created {
			continue
		}
		if p.home(name) != p.cfg.Rank {
			// The home arbitrates: a surviving home's directory is
			// authoritative, and a home that was down alongside us has
			// rebuilt its directory from every survivor's reports by the
			// time it answers. It replies kOwnerReport (install) or
			// kOwnerDeny (the hint predates a later migration; drop it).
			p.sendOwnerQuery(name)
			continue
		}
		if d, ok := p.dir[name]; ok && d.known && d.owner != p.cfg.Rank {
			continue // a live process claimed the main copy
		}
		inc.ownerConfirmed[name] = true
		if img, ok := inc.unconfirmedData[name]; ok {
			delete(inc.unconfirmedData, name)
			p.installRecoveredMain(img, nil)
		}
	}
	// Answer queries deferred while our own directory was being rebuilt.
	qs := inc.pendingOwnerQueries
	inc.pendingOwnerQueries = nil
	for _, q := range qs {
		p.onOwnerQuery(q)
	}
	p.repairCoverage()
}

// sendOwnerQuery asks an object's home whether the most recent committed
// migration left the main copy here.
func (p *Proc) sendOwnerQuery(name Name) {
	ver := p.inc.orphanHints[name]
	if img := p.inc.unconfirmedData[name]; img != nil && img.hasMeta && img.meta.Version > ver {
		ver = img.meta.Version
	}
	if p.rec != nil {
		p.emit(trace.Event{Kind: trace.SamOwnerQuery, Name: uint64(name), Dst: int64(p.home(name)), Aux: ver})
	}
	p.send(p.home(name), &wire{Kind: kOwnerQuery, Name: uint64(name),
		Meta: ft.ObjectMeta{Version: ver}, HasMeta: true})
}

// onOwnerQuery arbitrates an orphan-ownership claim. With up to Degree
// simultaneous failures and Degree checkpoint-copy holders, at most one
// dead rank can hold an object's committed main copy, so granting the
// first otherwise-unclaimed query is sound.
func (p *Proc) onOwnerQuery(q ownerQuery) {
	if p.inc != nil && !p.inc.orphansDecided {
		// Our directory is still being rebuilt from survivors' reports;
		// answering now could grant an object a live process owns.
		p.inc.pendingOwnerQueries = append(p.inc.pendingOwnerQueries, q)
		return
	}
	d := p.dirEnt(q.name)
	if d.known && d.owner != q.from {
		p.send(q.from, &wire{Kind: kOwnerDeny, Name: uint64(q.name)})
		return
	}
	// No live process claims the object: the most recent committed
	// migration pointed at the querier, so it holds the main copy.
	p.send(q.from, &wire{Kind: kOwnerReport, Name: uint64(q.name)})
	p.setOwner(q.name, q.from)
}

func (p *Proc) onOwnerDeny(w *wire) {
	name := Name(w.Name)
	if p.rec != nil {
		p.emit(trace.Event{Kind: trace.SamOwnerDeny, Name: w.Name, Src: int64(w.SrcRank)})
	}
	delete(p.inc.unconfirmedData, name)
	delete(p.inc.orphanHints, name)
}

// checkRestoreComplete resumes the application once the private state and
// every non-freeable owned object's data have arrived. Objects already
// marked freeable at the checkpoint may have been legitimately reclaimed
// since; the replay never touches them.
func (p *Proc) checkRestoreComplete() {
	inc := p.inc
	if !inc.restoring {
		return
	}
	priv := inc.priv
	if priv == nil {
		// Fresh restart only once every private-state holder has denied
		// having a copy.
		if len(inc.freshVotes) < len(p.privHolders) {
			return
		}
		if p.rec != nil {
			p.emit(trace.Event{Kind: trace.SamRecRestore, Note: "fresh"})
		}
		p.resume(restoreResult{fresh: true})
		return
	}
	metaFor := make(map[Name]ft.ObjectMeta, len(priv.Owned))
	for _, m := range priv.Owned {
		metaFor[Name(m.Name)] = m
		if m.Freeable {
			continue
		}
		if _, ok := inc.data[Name(m.Name)]; !ok {
			return // still waiting for this object's data
		}
	}

	// Everything needed has arrived: restore.
	p.clocks.Restore(priv.T, priv.C, priv.D)
	p.stepsDone = priv.StepsDone
	p.boundarySnap = priv.AppState
	p.stepLog, p.replayAt = priv.Log, 0
	p.hasCheckpointed = true
	// Retain the packed image: if a holder of our private-state copy fails
	// before our next checkpoint, the re-replication path needs the bytes.
	p.lastPriv = inc.privImg

	for _, name := range sortedKeys(inc.data) {
		img := inc.data[name]
		if m, ok := metaFor[name]; ok {
			p.installRecoveredMain(img, &m)
		} else {
			// Not owned at the last checkpoint: only an ownership
			// confirmation from the home or the previous holder may
			// promote this data to a main copy.
			p.stashOrInstall(img)
		}
	}
	if p.rec != nil {
		p.emit(trace.Event{
			Kind: trace.SamRecRestore, Aux: priv.StepsDone, Note: "log " + strconv.Itoa(len(priv.Log)),
			T: trace.CopyVec(priv.T), C: trace.CopyVec(priv.C), D: trace.CopyVec(priv.D),
		})
	}
	p.resume(restoreResult{fresh: false, steps: priv.StepsDone, snap: priv.AppState})
}

// resume ends the restoring phase: the stash is released, the application
// goroutine gets its state, and what waited for our tables to be usable —
// contributions to other restarted ranks, coverage repair — proceeds.
func (p *Proc) resume(res restoreResult) {
	inc := p.inc
	inc.restoring = false
	inc.priv, inc.privImg, inc.freshVotes, inc.data = nil, privImage{}, nil, nil
	inc.restorec <- res
	for _, r := range sortedKeys(inc.pendingContrib) {
		p.contributeIfNeeded(r)
	}
	inc.pendingContrib = nil
	p.repairCoverage()
}

// installRecoveredMain re-creates the main copy of an object from a
// checkpoint copy. meta, when non-nil, is the (newer) record from the
// private state; otherwise the copy's carried metadata applies.
func (p *Proc) installRecoveredMain(img *image, meta *ft.ObjectMeta) {
	name := img.name
	p.inc.recoverInstalled[name] = true
	o := p.obj(name)
	if o.isMain && o.created {
		return
	}
	data, err := codec.Unpack(img.body)
	if err != nil {
		return
	}
	o.data = data
	o.state = stPresent
	o.isMain = true
	o.created = true
	o.dirty = false
	o.fetchOutstanding = false
	// Contents were replaced from the checkpoint image.
	o.invalidatePackCache()
	if meta != nil {
		o.applyMeta(*meta)
	} else if img.hasMeta {
		o.applyMeta(img.meta)
	}
	o.setCommitted(img.seq, img.body)
	// Rebuild the coverage ledger from the contributions that actually
	// arrived — the holders that exist, not a recomputed placement — and
	// queue a repair pass to top the set back up to full coverage.
	p.store.Record(uint64(name), img.seq, p.takeRecoverHolders(name, img.seq))
	p.repairPending[name] = true
	o.pendingMove = -1

	if p.home(name) == p.cfg.Rank {
		p.setOwner(name, p.cfg.Rank)
	}
	if o.freeable {
		p.freePending[name] = true
	}
	p.serveLocalWaiters(o)
	p.serveRemoteWaiters(o)
	// Serve migration grants that raced ahead of the restoration.
	p.drainPendingGrants(o)
}
