package sam

import (
	"fmt"

	"samft/internal/codec"
	"samft/internal/ft"
	"samft/internal/netsim"
	"samft/internal/pvm"
)

// TagSAM is the PVM message tag carrying all SAM protocol traffic.
const TagSAM = pvm.TagUserBase + 1

// Message kinds. One wire struct carries every kind and unused fields stay
// at their zero values — but they are still encoded: the codec writes ints
// at fixed width, so every frame carries the whole struct (159 bytes packed
// for the smallest control message, 183 with a one-entry stamp, 163 plus
// the body for a frame with one; TestFrameSizes pins them). Renumbering
// kinds therefore never moves a frame size.
//
// Values and accumulators are registered (kReg) and read — a value fetch, a
// chaotic read — by one exchange: requester -> home (kReadReq) -> owner
// (kReadFwd) -> requester (kObjData, whose Meta names the object kind). Only
// what accumulators alone do — migrate under mutual exclusion — has its own.
//
// A wire is a frame and nothing else: a handler reads what it needs out of
// the one it is given and keeps none of it, not even its slices, since
// every received header is decoded into one reused wire
// (TestNoReceivedWireIsRetained).
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

// A frame crosses the network in two parts (netsim.Endpoint.SendParts): a
// header, packed per destination, and the body, passed by reference. The
// header is the wire with its Body cut out and the sender's stamp for the
// destination filled in. A body is itself a checksummed codec frame — the
// owner's packed object or private state — so the one packed copy is
// shared by the sender's cache, the network and every holder, and is
// checked once, on arrival. On the modeled wire nothing changes: a header
// whose wire has a body packs an empty one in its place, so it still
// counts the body's presence and length words, and header plus body are
// exactly the bytes of the single frame they replace (TestFrameSizes).
//
// A header costs no allocation at either end (TestFrameHeadersAllocNothing).
// The sender copies the wire into its one scratch header wire (Proc.headWire)
// and packs that, so the caller's wire never reaches the codec, into a
// buffer from its free list (Proc.headFree). The buffer travels as the
// message's payload and becomes the receiver's: it decodes the header into
// its one receive wire (Proc.recvWire) and puts the buffer on its own free
// list. A body is never recycled: it belongs to nobody.

// noBody is what a header carries in place of a body: empty, but not nil.
var noBody = []byte{}

// maxFreeHeads bounds a process's free list of header buffers: a process
// that receives more frames than it sends leaves the surplus to the GC.
const maxFreeHeads = 8

// encodeHead packs w's header for dstRank into a buffer the caller hands
// to the network, which gives it to the receiver. w itself is only read:
// a checkpoint transaction keeps its pieces' wires to re-send them, and
// direct dispatch hands them to handlers.
func (p *Proc) encodeHead(w *wire, dstRank int) []byte {
	h := &p.headWire
	*h = *w
	if w.Body != nil {
		h.Body = noBody
	}
	if p.cfg.Policy != ft.PolicyOff { // any FT policy: piggyback clocks
		st := p.clocks.DeltaStampFor(dstRank)
		h.HasStamp = true
		h.StampT = st.Full
		h.StampIdx = st.Idx
		h.StampVal = st.Val
		h.StampC = st.CForDst
	}
	var buf []byte
	if n := len(p.headFree); n > 0 {
		buf = p.headFree[n-1][:0]
		p.headFree = p.headFree[:n-1]
	} else {
		buf = make([]byte, 0, p.headMax)
	}
	b, err := codec.AppendPack(buf, h)
	if err != nil {
		panic(fmt.Errorf("sam: encode %s: %w", kindName(w.Kind), err))
	}
	p.headMax = max(p.headMax, len(b))
	return b
}

// recycleHead puts a received header's buffer on the free list, if there
// is room.
func (p *Proc) recycleHead(b []byte) {
	if len(p.headFree) < maxFreeHeads {
		p.headFree = append(p.headFree, b)
	}
}

// decodeFrame is encodeHead's inverse on a received message: it unpacks
// the header into w, reusing w's slices, verifies the body, and attaches
// the body without copying it. A header with no room for a body must come
// without one, and one with room must come with an intact body. w's old
// body is dropped first, so the decoder never writes into a shared body.
// On error w holds a partial decode.
func decodeFrame(m *netsim.Message, w *wire) error {
	w.Body = nil
	if err := codec.UnpackInto(m.Payload, w); err != nil {
		return err
	}
	switch {
	case w.Body == nil:
		if len(m.Body) != 0 {
			return fmt.Errorf("%w: %s header has no body but %d body bytes came with it", codec.ErrCorrupt, kindName(w.Kind), len(m.Body))
		}
	case len(w.Body) != 0:
		return fmt.Errorf("%w: %s header carries %d body bytes", codec.ErrCorrupt, kindName(w.Kind), len(w.Body))
	default:
		if err := codec.Verify(m.Body); err != nil {
			return err
		}
		w.Body = m.Body
	}
	return nil
}
