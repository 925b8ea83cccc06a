package ft

// ObjKind distinguishes the two kinds of SAM shared data.
type ObjKind uint8

const (
	// KindValue is a single-assignment value: immutable once created, so
	// accesses to it are reexecutable.
	KindValue ObjKind = 1
	// KindAccum is an accumulator: mutable under mutual exclusion and
	// migrated between processes, so its contents are nonreproducible.
	KindAccum ObjKind = 2
)

func (k ObjKind) String() string {
	switch k {
	case KindValue:
		return "value"
	case KindAccum:
		return "accum"
	default:
		return "?"
	}
}

// ObjectMeta is the per-owned-object metadata preserved inside a
// private-state checkpoint. The object *data* is preserved separately as a
// checkpoint copy in another process's cache; on recovery the metadata
// from the private state is rejoined with the data returned by the
// checkpoint-copy holder.
type ObjectMeta struct {
	Name uint64
	Kind uint8 // ObjKind
	// Nonreproducible records whether the object's contents depend on a
	// non-reexecutable operation (always true for accumulators).
	Nonreproducible bool
	// AccessesDeclared is the total number of uses the creator declared;
	// <= 0 means the object is freed explicitly.
	AccessesDeclared int64
	// AccessesDone counts uses already performed (local uses by the owner
	// plus uses reported by consumers).
	AccessesDone int64
	// Freeable is set once all accesses have occurred; FreeableAt is the
	// owner's virtual time at that moment (the f of §4.3).
	Freeable   bool
	FreeableAt int64
	// Version counts the object's mutations over its whole lifetime and
	// travels with it across migrations. Checkpoint copies of the same
	// object from different senders are ordered by Version (senders'
	// virtual times are not comparable with each other).
	Version int64
}

// PrivateState is the record replicated to another host at every
// checkpoint (§4.2): the process's local application state — the snapshot
// at the last step boundary plus the log of the step since — and the SAM
// bookkeeping that cannot be reconstructed from other processes. Pending
// requests *by other processes* and directory information *about objects
// owned by others* are deliberately absent — the paper observes they can
// be reissued or retransmitted during recovery.
type PrivateState struct {
	Rank int
	// Seq is the checkpoint sequence number (the process's virtual time at
	// the checkpoint); a recipient keeps only the newest.
	Seq int64
	// StepsDone is the application step counter at the checkpoint
	// boundary; recovery resumes execution at step StepsDone+1.
	StepsDone int64
	// AppState is the packed application snapshot (a codec frame).
	AppState []byte
	// Owned is the metadata for every object whose main copy is here.
	Owned []ObjectMeta
	// T, C, D are the virtual-time vectors of §4.3.
	T, C, D []int64
	// Log is the non-reexecutable results of step StepsDone+1 up to the
	// checkpoint, in order; empty at a step boundary. Recovery replays that
	// step from AppState and hands these back instead of performing the
	// operations again.
	Log []LogEntry
}

// LogEntry is one non-reexecutable result of the step in progress: the
// operation, the object it named and what it returned, as a packed codec
// frame (empty for an operation that returns nothing).
type LogEntry struct {
	Op   uint8
	Name uint64
	Body []byte
}

// RegisteredName is the codec type name under which PrivateState travels.
const RegisteredName = "ft.PrivateState"
