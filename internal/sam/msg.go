package sam

import (
	"fmt"

	"samft/internal/codec"
	"samft/internal/ft"
	"samft/internal/pvm"
)

// TagSAM is the PVM message tag carrying all SAM protocol traffic.
const TagSAM = pvm.TagUserBase + 1

// Message kinds. One wire struct carries every kind and unused fields stay
// at their zero values — but they are still encoded: the codec writes ints
// at fixed width, so every frame carries the whole struct (160 bytes packed
// for the smallest control message, 184 with a one-entry stamp;
// TestFrameSizes pins both). Renumbering
// kinds therefore never moves a frame size.
//
// Values and accumulators are registered (kReg) and read — a value fetch, a
// chaotic read — by one exchange: requester -> home (kReadReq) -> owner
// (kReadFwd) -> requester (kObjData, whose Meta names the object kind). Only
// what accumulators alone do — migrate under mutual exclusion — has its own.
//
// A wire is a frame and nothing else: a handler reads what it needs out of
// the one it is given and keeps none (TestNoReceivedWireIsRetained).
// Checkpointed state that outlives a message is an image or a privImage
// (image.go), converted at the frame boundary by imageOf and image.wire —
// so splitting this struct into a header plus per-kind payloads is a change
// to this file and those two functions.
const (
	// Objects of either kind.
	kReg     = iota + 1 // creator -> home: object exists, owner = SrcRank
	kReadReq            // requester -> home: locate the object and send me its contents
	kReadFwd            // home (or a previous owner) -> owner: forward of kReadReq (Target = requester)
	kObjData            // owner -> Target: object contents (read reply, or Push of a value)
	kValUsed            // consumer -> owner: batched use counts (Names/Counts)

	// Accumulator migration.
	kAccAcq   // requester -> home: request mutual exclusion + migration
	kAccGrant // home -> current owner: migrate accumulator to Target
	kAccData  // old owner -> new owner: accumulator contents (ownership transfer)
	kAccOwner // old owner -> home: ownership moved to Target

	// Checkpointing (§4.4).
	kCkptPriv  // checkpointer -> designated: private state, provisional until the activation
	kCkptCopy  // checkpointer -> designated: object checkpoint copy
	kCkptAck   // recipient -> checkpointer: every inactive piece of the transaction up to the numbered one is here
	kActivate  // checkpointer -> recipients: commit, activate Seq's objects
	kForceCkpt // owner -> laggard: checkpoint so I can free (F = freeable time)
	kForceAck  // laggard -> owner: done (the stamp carries the new c value; nothing else)
	kFreeCkpt  // owner -> checkpoint-copy holder: copy can be dropped

	// Failure handling (§4.5).
	kFailed      // any -> coordinator: rank T appears dead
	kRecovery    // coordinator -> all: rank Target restarted as tid NewTID; from the new process itself, also: (re)send your contribution
	kRecoverPriv // priv-state holder -> new process: latest private state
	kRecoverData // ckpt-copy holder -> new process: object main copy restoration
	kDirReport   // object owner -> new process: I own this name homed at you (kReg, but counted as a recovery contribution)
	kOwnerReport // home -> new process, or an owner asking for what it holds: you own this object (authoritative)
	kOwnerHint   // previous holder -> new process: a migration sent this object to you (version-stamped)
	kRecoverFin  // survivor -> new process: my recovery contribution is complete
	kOwnerQuery  // new process -> home: do I own this hinted object? (version-stamped)
	kOwnerDeny   // home -> new process: you do not own the queried object; drop the hint
)

// kindNames is indexed by message kind.
var kindNames = [...]string{
	kReg: "Reg", kReadReq: "ReadReq", kReadFwd: "ReadFwd",
	kObjData: "ObjData", kValUsed: "ValUsed",
	kAccAcq: "AccAcq", kAccGrant: "AccGrant",
	kAccData: "AccData", kAccOwner: "AccOwner",
	kCkptPriv: "CkptPriv", kCkptCopy: "CkptCopy", kCkptAck: "CkptAck",
	kActivate: "Activate", kForceCkpt: "ForceCkpt", kForceAck: "ForceAck",
	kFreeCkpt: "FreeCkpt",
	kFailed:   "Failed", kRecovery: "Recovery", kRecoverPriv: "RecoverPriv",
	kRecoverData: "RecoverData", kDirReport: "DirReport",
	kOwnerReport: "OwnerReport", kOwnerHint: "OwnerHint", kRecoverFin: "RecoverFin",
	kOwnerQuery: "OwnerQuery", kOwnerDeny: "OwnerDeny",
}

func kindName(k int) string {
	if k > 0 && k < len(kindNames) {
		return kindNames[k]
	}
	return "?"
}

// wire is the single SAM protocol message. Every message piggybacks the
// sender's virtual-time stamp (§4.3) so the D vectors stay current without
// dedicated traffic.
type wire struct {
	Kind    int
	SrcRank int
	// Name identifies the object the message concerns.
	Name uint64
	// Target is a rank parameter: the requester in forwards, the new
	// owner in migrations, the failed/restarted rank in recovery.
	Target int
	// NewTID carries the restarted process's task id in kRecovery.
	NewTID int
	// Body is a nested codec frame holding object contents or a
	// private-state record.
	Body []byte
	// Seq identifies a checkpoint transaction (the checkpointer's virtual
	// time) or an object copy's freshness.
	Seq int64
	// Piece numbers the one piece per destination of a checkpoint
	// transaction that the destination acknowledges — the last inactive
	// one sent there; the ack echoes it so a re-sent piece (after a
	// recipient failure) cannot be double-counted. -1 on the pieces before
	// it, and on out-of-transaction copies, which need no ack.
	Piece int
	// Inactive marks data that must not be used until the matching
	// kActivate arrives (§4.4).
	Inactive bool
	// F is the freeable-mark time in force-checkpoint messages.
	F int64
	// Meta carries the owner's metadata alongside object contents: on every
	// object frame (kObjData, kAccData) and checkpoint/recovery copy.
	Meta ft.ObjectMeta
	// HasMeta distinguishes a zero Meta from an absent one.
	HasMeta bool
	// Owner is the rank that owns the main copy a kCkptCopy backs. It is
	// normally the sender, but a checkpoint copy sent for an accumulator
	// being migrated in the same transaction names the *new* owner, so
	// the copy restores to the right process after a failure.
	Owner int
	// Names/Counts carry batched use reports (kValUsed).
	Names  []uint64
	Counts []int64
	// Fresh marks a kRecoverPriv that carries no state: the failed rank
	// had never checkpointed and must restart from Init.
	Fresh bool
	// Holders carries a coverage-ledger entry on kAccData migrations: the
	// ranks the sender placed checkpoint copies on for the new owner.
	// Affinity placement is not recomputable by the receiver, so the
	// holder set must travel with the ownership transfer.
	Holders []int
	// Stamp piggyback (§4.3), delta-encoded (ft.DeltaStamp). HasStamp
	// gates absorption: a stamp may legitimately carry no entries (nothing
	// changed since the last message to this destination). StampT is the
	// full T vector — sent on first contact with the destination and after
	// its incarnation changes — otherwise StampIdx/StampVal carry only the
	// entries that changed since the previous stamp to the destination.
	HasStamp bool
	StampT   []int64
	StampIdx []int64
	StampVal []int64
	StampC   int64
}

func init() {
	codec.Register("sam.wire", wire{})
	codec.Register(ft.RegisteredName, ft.PrivateState{})
}

// encodeWire packs a wire message, attaching the sender's stamp for dst.
func (p *Proc) encodeWire(w *wire, dstRank int) []byte {
	if p.cfg.Policy != 0 { // any FT policy: piggyback clocks
		st := p.clocks.DeltaStampFor(dstRank)
		w.HasStamp = true
		w.StampT = st.Full
		w.StampIdx = st.Idx
		w.StampVal = st.Val
		w.StampC = st.CForDst
	}
	b, err := codec.Pack(w)
	if err != nil {
		panic(fmt.Errorf("sam: encode %s: %w", kindName(w.Kind), err))
	}
	return b
}

func decodeWire(payload []byte) (*wire, error) {
	v, err := codec.Unpack(payload)
	if err != nil {
		return nil, err
	}
	w, ok := v.(*wire)
	if !ok {
		return nil, fmt.Errorf("sam: unexpected message type %T", v)
	}
	return w, nil
}
