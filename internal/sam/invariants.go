package sam

// Invariant snapshots. The chaos harness uses these to check that a run
// that survived injected failures is in a consistent state: exactly one
// created main copy per object across the cluster, checkpoint coverage
// at the replication degree, and no provisional (uncommitted) state left
// behind. Snapshots can be taken after the runtime exits (Invariants) or
// mid-run through the command queue (LiveInvariants), which the chaos
// harness uses to assert coverage after every recovery round rather than
// only at the end of a run.

// ObjectInvariant is the externally checkable slice of one object entry.
type ObjectInvariant struct {
	Name uint64
	// Main/Created describe the main-copy role; Freeable mains may have
	// had their checkpoint copies legitimately dropped.
	Main     bool
	Created  bool
	Freeable bool
	// CkptSeq is the owner's last committed checkpoint of the object
	// (0 = never checkpointed).
	CkptSeq int64
	// CkptCopy entries back rank CopyOwner's main copy as of CopySeq.
	CkptCopy  bool
	CopyOwner int
	CopySeq   int64
	// Inactive and PendingCopy mark provisional state from an uncommitted
	// checkpoint transaction; none may survive a completed run.
	Inactive    bool
	PendingCopy bool
}

// InvariantSnapshot is one process's state summary.
type InvariantSnapshot struct {
	Rank    int
	Objects []ObjectInvariant
	// StagedPriv counts provisional private-state replicas awaiting an
	// activation that can no longer come; OpenTx marks an unfinished
	// checkpoint transaction; DeferredMsgs counts messages parked behind
	// one. All must be zero/false after a quiesced run.
	StagedPriv   int
	OpenTx       bool
	DeferredMsgs int
	// DeadRanks counts peers known dead and not yet replaced at snapshot
	// time; coverage assertions only apply when the cluster is whole.
	DeadRanks int
	// RepairViolations lists objects the coverage-repair pass could not
	// restore to the target redundancy with the cluster whole. Any entry
	// fails the chaos sweep.
	RepairViolations []string
	// Recoveries counts recovery rounds this process has completed (as
	// contributor or restartee), letting pollers detect quiescence.
	Recoveries int64
}

// Invariants summarizes this process's object table for post-run checks.
// It touches runtime-goroutine state without locking, so outside that
// goroutine it must only be called after the runtime has exited (wait on
// Done(), e.g. after the harness halts the machine).
func (p *Proc) Invariants() InvariantSnapshot {
	s := InvariantSnapshot{
		Rank:             p.cfg.Rank,
		StagedPriv:       len(p.privStaging),
		OpenTx:           p.tx != nil,
		DeferredMsgs:     len(p.deferredActs),
		DeadRanks:        len(p.deadRanks),
		RepairViolations: append([]string(nil), p.repairViolations...),
		Recoveries:       p.st.Recoveries.Load(),
	}
	for _, name := range sortedKeys(p.objs) {
		o := p.objs[name]
		oi := ObjectInvariant{
			Name:        uint64(o.name),
			Main:        o.isMain,
			Created:     o.created,
			Freeable:    o.freeable,
			CkptSeq:     o.committed.seq,
			Inactive:    o.state == stInactive,
			PendingCopy: o.pending != nil,
		}
		if c := o.copy; c != nil {
			oi.CkptCopy, oi.CopyOwner, oi.CopySeq = true, c.owner, c.seq
		}
		s.Objects = append(s.Objects, oi)
	}
	return s
}

// LiveInvariants takes a snapshot through the command queue while the
// runtime is still executing, so chaos sweeps can assert coverage between
// recovery rounds. It returns ok=false if the process is dead (killed or
// exited) instead of panicking like application commands do — the caller
// is the harness, not the application.
func (p *Proc) LiveInvariants() (InvariantSnapshot, bool) {
	c := &cmd{op: opInvariants, res: make(chan cmdResult, 1)}
	select {
	case p.cmdq <- c:
	case <-p.deadc:
		return InvariantSnapshot{}, false
	}
	select {
	case r := <-c.res:
		snap, ok := r.obj.(InvariantSnapshot)
		return snap, ok
	case <-p.deadc:
		return InvariantSnapshot{}, false
	}
}
