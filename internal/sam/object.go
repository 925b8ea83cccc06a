package sam

import (
	"slices"

	"samft/internal/ft"
	"samft/internal/pvm"
)

// objState tracks a local object entry's lifecycle.
type objState uint8

const (
	// stAbsent: placeholder created while a fetch is outstanding.
	stAbsent objState = iota
	// stPresent: contents available locally (main copy or cached copy).
	stPresent
	// stInactive: contents received as part of an uncommitted checkpoint
	// transaction; unusable until the kActivate arrives.
	stInactive
)

// object is one entry in a process's shared-object table: the main copy
// if this process is the owner, a cached copy, a checkpoint copy held for
// another process, or a placeholder awaiting data. An object may be both
// a cached copy for local use and a checkpoint copy (the paper's central
// trick: replicas live in the cache and serve hits). Its flags sit beside
// each other so the struct keeps to 480 bytes, a malloc size class
// (TestObjectStaysInItsSizeClass).
type object struct {
	name Name
	kind ft.ObjKind
	data interface{} // decoded contents; nil while stAbsent

	state  objState
	isMain bool // this process currently owns the main copy

	// created is set once a value's EndCreate has run (main copies only);
	// a main value entry can exist uncreated when remote requests queued
	// up before the local creation (e.g. after a recovery replay).
	created bool

	// nonrepro marks contents that depend on a non-reexecutable
	// operation; dirty marks contents not yet covered by a committed
	// checkpoint. A send of a nonrepro&&dirty object must checkpoint
	// first (§4.1); once covered, recovery restores the exact contents so
	// further sends are free.
	nonrepro bool
	dirty    bool

	// Access accounting (owner side).
	accessesDeclared int64 // Unlimited (0) = explicit free
	accessesDone     int64
	freeable         bool
	frozen           bool  // renamed away: retained only for recovery
	freeableAt       int64 // owner's virtual time at the freeable mark

	// Consumer side: local uses not yet reported to the owner.
	unreportedUses int64

	// pins counts active UseValue accessors (local).
	pins int

	// Accumulator state (owner side).
	accLocked       bool // application holds the update lock
	pendingMove     int  // rank to migrate to when quiescent, -1 if none
	migrationQueued bool // a migration trigger is queued/in a transaction

	// ownerRank is, for cached entries, the last known owner.
	ownerRank int
	// copy is the committed checkpoint image held here on behalf of
	// copy.owner; pending is one received inactive, awaiting its sender's
	// activation. Both are nil until a copy actually arrives. A committed
	// copy also populates data and serves local cache hits.
	copy    *image
	pending *image
	// resupply marks a pending copy whose owner's replacement we supplied
	// without it: commitPending sends it on.
	resupply bool
	// forcedSent records that force-checkpoint messages for this freeable
	// object have been sent (at most once per object).
	forcedSent bool
	// awaits is the activation that makes stInactive contents usable; from
	// -1 when none will come (inDoubt).
	awaits activation

	// sentTo and usedBy are, on an owned value with fault tolerance on,
	// bit sets of ranks below 64: those its contents were sent to, and
	// those of them that reported a use since. They say what a replacement
	// of one of them may read again (resend.go).
	sentTo, usedBy uint64

	// pendingGrants are migration targets received before this process's
	// main copy was restored by recovery.
	pendingGrants []int

	// waiters are application commands parked until this object becomes
	// usable locally.
	waiters []*cmd
	// remoteWaiters are ranks whose reads arrived while the main copy could
	// not be sent from here (serveRead); serveRemoteWaiters replays them.
	remoteWaiters []int

	// fetchOutstanding marks an issued read/acquire request; used to
	// avoid duplicates and to re-issue after an owner's failure. reqKind
	// records which request to re-issue (kReadReq or kAccAcq).
	fetchOutstanding bool
	reqKind          int

	// renameWaiter is an application RenameValue command blocked until
	// this value becomes freeable.
	renameWaiter *cmd

	// dirtySeq increments on every mutation; a checkpoint transaction
	// clears dirty only if no mutation happened while it was in flight.
	dirtySeq int64

	// version counts mutations over the object's whole lifetime and
	// migrates with it; copies are ordered by it (see ft.ObjectMeta).
	version int64

	// committed is the object exactly as of this owner's last committed
	// checkpoint (seq 0 = never checkpointed), so a lost checkpoint copy
	// can be re-sent without leaking uncovered mutations. Accumulators
	// mutate in place and keep the packed body; values are immutable and
	// are repacked on demand, so theirs stays nil.
	committed image

	// packCache is the version-keyed snapshot cache: the packed frame of
	// data as of mutation sequence packCacheSeq. While the object is
	// unmutated (dirtySeq unchanged), checkpoint copies, fetch replies, and
	// snapshots reuse these bytes instead of re-walking the object — the
	// dominant cost of the checkpoint hot path. Contents that arrive in a
	// frame (migration, read reply) keep that frame as the cache; it is
	// invalidated explicitly wherever data is replaced otherwise (recovery
	// restore, a checkpoint copy) and implicitly by any dirtySeq bump.
	packCache    []byte
	packCacheSeq int64

	// Consumer side of a cached value copy (DESIGN §7 "A consumed copy
	// lends its storage"): usedAt is the stepsDone of its last read. Once
	// that step has ended, an arriving copy of the same type may decode into
	// data: the copy is then lent (data nil, frame() still holding its
	// contents) until a read decodes it again. lendQ is the lenders queue o
	// waits in from the DoneValue that releases it, if any.
	usedAt             int64
	lent               bool
	lendQ              *lendQueue
	lendPrev, lendNext *object
}

// usable reports whether the local contents can satisfy an access: decoded,
// or lent and decodable again from their frame.
func (o *object) usable() bool { return o.state == stPresent && (o.data != nil || o.lent) }

// frame is the packed frame a cached copy's contents can be decoded from
// again: the one they arrived in, or else the checkpoint image held here.
// A lent copy always has one.
func (o *object) frame() []byte {
	if o.packCache != nil {
		return o.packCache
	}
	if o.copy != nil {
		return o.copy.body
	}
	return nil
}

// inDoubt reports a main copy that migrated here in a transaction whose
// sender died before activating it (dropProvisionalFrom): whether that
// transaction committed is the home's to say.
func (o *object) inDoubt() bool { return o.state == stInactive && o.awaits.from < 0 }

// invalidatePackCache drops the cached packed frame. Callers invoke it
// when the object's contents are replaced (rather than mutated under
// dirtySeq) or when ownership leaves this process.
func (o *object) invalidatePackCache() {
	o.packCache = nil
	o.packCacheSeq = 0
}

// keepPacked makes body, the frame data was just unpacked from, the pack
// cache: packing data again would reproduce it.
func (o *object) keepPacked(body []byte) {
	o.packCache = body
	o.packCacheSeq = o.dirtySeq
}

// meta builds the checkpoint metadata record for an owned object.
func (o *object) meta() ft.ObjectMeta {
	return ft.ObjectMeta{
		Name:             uint64(o.name),
		Kind:             uint8(o.kind),
		Nonreproducible:  o.nonrepro,
		AccessesDeclared: o.accessesDeclared,
		AccessesDone:     o.accessesDone,
		Freeable:         o.freeable,
		FreeableAt:       o.freeableAt,
		Version:          o.version,
	}
}

// applyMeta restores owner-side metadata from a checkpoint record.
func (o *object) applyMeta(m ft.ObjectMeta) {
	o.kind = ft.ObjKind(m.Kind)
	o.nonrepro = m.Nonreproducible
	o.accessesDeclared = m.AccessesDeclared
	o.accessesDone = m.AccessesDone
	o.freeable = m.Freeable
	o.freeableAt = m.FreeableAt
	o.version = m.Version
}

// setCommitted records the object as it stands — metadata, and body, its
// packed contents — as its image at checkpoint seq.
func (o *object) setCommitted(seq int64, body []byte) {
	if o.kind != ft.KindAccum {
		body = nil // immutable: ckptImage repacks on demand
	}
	o.committed = image{name: o.name, seq: seq, meta: o.meta(), hasMeta: true, body: body}
}

// dirEntry is the directory record a name's home process keeps: where the
// main copy lives and who is waiting for it.
type dirEntry struct {
	name  Name
	known bool // owner is known; setOwner is the one writer of both
	owner int  // rank of the current owner

	// pendingRead are ranks whose kReadReq arrived before an owner was known.
	pendingRead []int
	// ownerTID is the incarnation that registered the owner. unbacked are
	// ranks whose reads went to a replacement of it: they follow the name to
	// a new owner (setOwner; DESIGN §7 "Recovery holes").
	ownerTID pvm.TID
	unbacked []int

	// Accumulator arbitration: FIFO of ranks waiting for the lock, and
	// whether a migration grant is outstanding.
	acqQueue      []int
	grantInFlight bool
	grantTarget   int
}

// enqueue parks rank in a queue of waiting ranks. Requests are re-issued
// after failures and replayed by recovery, so membership is idempotent: a
// rank already waiting keeps its place.
func enqueue(queue []int, rank int) []int {
	if slices.Contains(queue, rank) {
		return queue
	}
	return append(queue, rank)
}
