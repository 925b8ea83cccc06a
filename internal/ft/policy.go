package ft

// Policy selects the rule deciding which sends of shared data must be
// preceded by a checkpoint.
type Policy int

const (
	// PolicyOff disables fault tolerance entirely (the "no FT" curves).
	PolicyOff Policy = iota
	// PolicySAM is the paper's method: only sends of *nonreproducible*
	// data checkpoint. Data is nonreproducible when it was produced after
	// a non-reexecutable operation with no intervening checkpoint (§4.1).
	PolicySAM
	// PolicyNaive models a conventional DSM without SAM's access
	// information: every access to shared data could be racing, so all
	// modified data is nonreproducible and every send of data the process
	// produced forces a checkpoint. Used by the ablation experiments.
	PolicyNaive
)

func (p Policy) String() string {
	switch p {
	case PolicyOff:
		return "off"
	case PolicySAM:
		return "sam"
	case PolicyNaive:
		return "naive"
	default:
		return "unknown"
	}
}

// Taint tracks whether the current process state depends on the result of
// a non-reexecutable operation performed since the last checkpoint (§4.1).
// Any shared object the process creates or modifies while tainted is
// nonreproducible: restarting from the last checkpoint could produce it
// with different contents.
type Taint struct {
	policy  Policy
	tainted bool
}

// NewTaint returns a tracker for the given policy.
func NewTaint(p Policy) *Taint { return &Taint{policy: p} }

// OnNonReexecutable records that the process performed an operation whose
// re-execution is not guaranteed to produce identical effects: completing
// an accumulator update, creating an accumulator, observing a chaotic
// read, or receiving a migrated task.
func (t *Taint) OnNonReexecutable() { t.tainted = true }

// OnCheckpoint clears the taint: everything up to the checkpoint will be
// restored exactly, so subsequent creations start reproducible again.
func (t *Taint) OnCheckpoint() { t.tainted = false }

// Tainted reports whether data created/modified now would be
// nonreproducible. Under PolicyNaive it is always true, modeling a DSM
// that cannot prove any access reexecutable.
func (t *Taint) Tainted() bool {
	if t.policy == PolicyNaive {
		return true
	}
	return t.tainted
}
