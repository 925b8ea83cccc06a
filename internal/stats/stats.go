// Package stats collects the per-process counters behind the tables of the
// paper's §5: checkpoint rates, the fraction of shared-object sends that
// cause checkpoints, force-checkpoint traffic, and shared-data miss rates.
//
// Counters are updated with atomics: each is written by its process's
// runtime goroutine and read by the harness while the run is still in
// flight (progress reporting) or after it completes.
package stats

import (
	"fmt"
	"sync/atomic"
)

// Proc holds one process's counters.
type Proc struct {
	// Checkpoints counts committed checkpoints.
	Checkpoints atomic.Int64
	// ForcedCheckpoints counts checkpoints performed in response to a
	// force-checkpoint message (a subset of Checkpoints).
	ForcedCheckpoints atomic.Int64
	// ForceCkptMsgsSent counts force-checkpoint messages this process sent
	// to reclaim freeable main copies.
	ForceCkptMsgsSent atomic.Int64
	// ObjectSends counts sends of shared objects to other processes
	// (value data, accumulator migrations, pushes).
	ObjectSends atomic.Int64
	// CkptCausingSends counts object sends that required a checkpoint
	// first, i.e. sends of nonreproducible data.
	CkptCausingSends atomic.Int64
	// SharedAccesses counts application accesses to shared data
	// (value uses, accumulator updates, chaotic reads).
	SharedAccesses atomic.Int64
	// Misses counts shared accesses that could not be satisfied from the
	// local cache and required communication.
	Misses atomic.Int64
	// ReplicaObjects / ReplicaBytes count checkpoint copies sent out.
	ReplicaObjects atomic.Int64
	ReplicaBytes   atomic.Int64
	// SnapCacheHits / SnapCacheMisses count packs of owned objects served
	// from (or stored into) the version-keyed snapshot cache: a hit reuses
	// the bytes packed at the same mutation sequence instead of re-walking
	// the object. SnapCacheBytesSaved totals the packed bytes not re-produced.
	SnapCacheHits       atomic.Int64
	SnapCacheMisses     atomic.Int64
	SnapCacheBytesSaved atomic.Int64
	// PrivBytes counts private-state bytes replicated.
	PrivBytes atomic.Int64
	// DupSendsAvoided counts reads and pushes of a value that were not sent
	// because a checkpoint transaction — the one being planned, or the one
	// still open — already took that value to that process.
	DupSendsAvoided atomic.Int64
	// CkptAcks counts checkpoint acknowledgements received; a transaction
	// asks each recipient for one (Report.AcksPerCheckpoint).
	CkptAcks atomic.Int64
	// RepairObjects / RepairBytes count proactive coverage repairs: the
	// checkpoint copies re-replicated after a failure
	// destroyed holders, outside any checkpoint transaction.
	RepairObjects atomic.Int64
	RepairBytes   atomic.Int64
	// Recoveries counts recoveries this process coordinated.
	Recoveries atomic.Int64
	// StepsExecuted counts application steps completed (including replays).
	StepsExecuted atomic.Int64
	// MidstepCkpts counts committed checkpoints taken mid-step: their
	// private state carries a log of the step's non-reexecutable results (a
	// subset of Checkpoints). ReplayedOps counts the logged results a
	// restored process handed back instead of performing the operation.
	MidstepCkpts atomic.Int64
	ReplayedOps  atomic.Int64
	// ReleaseCkpts counts committed checkpoints a ReleaseAccum that owed a
	// waiting migration took inside the call (a subset of MidstepCkpts).
	ReleaseCkpts atomic.Int64
	// LentDecodes counts cached copies decoded into the storage of a
	// consumed copy whose step had ended, instead of into fresh storage;
	// LentRedecodes counts lent copies read again, and so decoded again
	// from their frame.
	LentDecodes   atomic.Int64
	LentRedecodes atomic.Int64
	// Resent / ResentBytes count the values, and their bytes, a survivor
	// re-sent to a replacement after its recovery contribution: inputs the
	// replay may read again, which it then need not fetch.
	Resent      atomic.Int64
	ResentBytes atomic.Int64
}

// Snapshot is a plain-value copy of a Proc's counters.
type Snapshot struct {
	Checkpoints         int64
	ForcedCheckpoints   int64
	ForceCkptMsgsSent   int64
	ObjectSends         int64
	CkptCausingSends    int64
	SharedAccesses      int64
	Misses              int64
	ReplicaObjects      int64
	ReplicaBytes        int64
	SnapCacheHits       int64
	SnapCacheMisses     int64
	SnapCacheBytesSaved int64
	PrivBytes           int64
	DupSendsAvoided     int64
	CkptAcks            int64
	RepairObjects       int64
	RepairBytes         int64
	Recoveries          int64
	StepsExecuted       int64
	MidstepCkpts        int64
	ReplayedOps         int64
	ReleaseCkpts        int64
	LentDecodes         int64
	LentRedecodes       int64
	Resent              int64
	ResentBytes         int64
}

// Snapshot returns a consistent-enough copy for reporting.
func (p *Proc) Snapshot() Snapshot {
	return Snapshot{
		Checkpoints:         p.Checkpoints.Load(),
		ForcedCheckpoints:   p.ForcedCheckpoints.Load(),
		ForceCkptMsgsSent:   p.ForceCkptMsgsSent.Load(),
		ObjectSends:         p.ObjectSends.Load(),
		CkptCausingSends:    p.CkptCausingSends.Load(),
		SharedAccesses:      p.SharedAccesses.Load(),
		Misses:              p.Misses.Load(),
		ReplicaObjects:      p.ReplicaObjects.Load(),
		ReplicaBytes:        p.ReplicaBytes.Load(),
		SnapCacheHits:       p.SnapCacheHits.Load(),
		SnapCacheMisses:     p.SnapCacheMisses.Load(),
		SnapCacheBytesSaved: p.SnapCacheBytesSaved.Load(),
		PrivBytes:           p.PrivBytes.Load(),
		DupSendsAvoided:     p.DupSendsAvoided.Load(),
		CkptAcks:            p.CkptAcks.Load(),
		RepairObjects:       p.RepairObjects.Load(),
		RepairBytes:         p.RepairBytes.Load(),
		Recoveries:          p.Recoveries.Load(),
		StepsExecuted:       p.StepsExecuted.Load(),
		MidstepCkpts:        p.MidstepCkpts.Load(),
		ReplayedOps:         p.ReplayedOps.Load(),
		ReleaseCkpts:        p.ReleaseCkpts.Load(),
		LentDecodes:         p.LentDecodes.Load(),
		LentRedecodes:       p.LentRedecodes.Load(),
		Resent:              p.Resent.Load(),
		ResentBytes:         p.ResentBytes.Load(),
	}
}

// Add accumulates another snapshot into s.
func (s *Snapshot) Add(o Snapshot) {
	s.Checkpoints += o.Checkpoints
	s.ForcedCheckpoints += o.ForcedCheckpoints
	s.ForceCkptMsgsSent += o.ForceCkptMsgsSent
	s.ObjectSends += o.ObjectSends
	s.CkptCausingSends += o.CkptCausingSends
	s.SharedAccesses += o.SharedAccesses
	s.Misses += o.Misses
	s.ReplicaObjects += o.ReplicaObjects
	s.ReplicaBytes += o.ReplicaBytes
	s.SnapCacheHits += o.SnapCacheHits
	s.SnapCacheMisses += o.SnapCacheMisses
	s.SnapCacheBytesSaved += o.SnapCacheBytesSaved
	s.PrivBytes += o.PrivBytes
	s.DupSendsAvoided += o.DupSendsAvoided
	s.CkptAcks += o.CkptAcks
	s.RepairObjects += o.RepairObjects
	s.RepairBytes += o.RepairBytes
	s.Recoveries += o.Recoveries
	s.StepsExecuted += o.StepsExecuted
	s.MidstepCkpts += o.MidstepCkpts
	s.ReplayedOps += o.ReplayedOps
	s.ReleaseCkpts += o.ReleaseCkpts
	s.LentDecodes += o.LentDecodes
	s.LentRedecodes += o.LentRedecodes
	s.Resent += o.Resent
	s.ResentBytes += o.ResentBytes
}

// Report is the paper-style statistics block for a whole run.
type Report struct {
	Procs   int
	Total   Snapshot
	Elapsed float64 // modeled seconds (max over process clocks)
	// RecvIdleUS is the modeled time processes waited for the network,
	// summed over all of them: for every message handled, how far its
	// arrival was ahead of the process's clock. RecvQueuedUS is the
	// converse — how long messages that had already arrived waited for
	// their process to turn to them. A process's network endpoint counts
	// both where it charges a receive (netsim.EndpointStats), which is why
	// they are not Proc counters; the harness sums them over every
	// incarnation.
	RecvIdleUS   float64
	RecvQueuedUS float64
}

// CheckpointsPerProcPerSec is the paper's "checkpoints executed on each
// processor per second" row.
func (r Report) CheckpointsPerProcPerSec() float64 {
	if r.Procs == 0 || r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Total.Checkpoints) / float64(r.Procs) / r.Elapsed
}

// PctSendsCausingCheckpoint is the paper's "percentage of sends of shared
// objects that cause checkpoints" row.
func (r Report) PctSendsCausingCheckpoint() float64 {
	if r.Total.ObjectSends == 0 {
		return 0
	}
	return 100 * float64(r.Total.CkptCausingSends) / float64(r.Total.ObjectSends)
}

// ForceCkptMsgsPerProcPerSec is the "force-checkpoint messages sent out on
// each processor per second" row.
func (r Report) ForceCkptMsgsPerProcPerSec() float64 {
	if r.Procs == 0 || r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Total.ForceCkptMsgsSent) / float64(r.Procs) / r.Elapsed
}

// ForcedCkptsPerProcPerSec is the "forced checkpoints on each processor
// per second" row.
func (r Report) ForcedCkptsPerProcPerSec() float64 {
	if r.Procs == 0 || r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Total.ForcedCheckpoints) / float64(r.Procs) / r.Elapsed
}

// SnapCacheHitPct is the fraction of owned-object packs served from the
// version-keyed snapshot cache.
func (r Report) SnapCacheHitPct() float64 {
	total := r.Total.SnapCacheHits + r.Total.SnapCacheMisses
	if total == 0 {
		return 0
	}
	return 100 * float64(r.Total.SnapCacheHits) / float64(total)
}

// AcksPerCheckpoint is the number of acknowledgements an average checkpoint
// transaction collected before it could commit.
func (r Report) AcksPerCheckpoint() float64 {
	if r.Total.Checkpoints == 0 {
		return 0
	}
	return float64(r.Total.CkptAcks) / float64(r.Total.Checkpoints)
}

// MissRatePct is the "average miss rate on shared data" row.
func (r Report) MissRatePct() float64 {
	if r.Total.SharedAccesses == 0 {
		return 0
	}
	return 100 * float64(r.Total.Misses) / float64(r.Total.SharedAccesses)
}

// RecvIdleSecPerProc is the modeled time an average process spent waiting
// for the network, in seconds (comparable with Elapsed).
func (r Report) RecvIdleSecPerProc() float64 {
	if r.Procs == 0 {
		return 0
	}
	return r.RecvIdleUS / 1e6 / float64(r.Procs)
}

// RecvQueuedSecPerProc is the modeled time arrived messages spent waiting
// for their process to turn to them, summed per message and averaged over
// processes, in seconds.
func (r Report) RecvQueuedSecPerProc() float64 {
	if r.Procs == 0 {
		return 0
	}
	return r.RecvQueuedUS / 1e6 / float64(r.Procs)
}

// String renders the report in the layout of the paper's per-figure
// tables.
func (r Report) String() string {
	return fmt.Sprintf(
		"procs=%d elapsed=%.3fs ckpts/proc/s=%.3f sends-ckpt%%=%.2f force-msgs/proc/s=%.4f forced-ckpts/proc/s=%.4f miss%%=%.2f snap-cache-hit%%=%.2f snap-cache-saved-B=%d dup-sends-avoided=%d acks/ckpt=%.2f midstep-ckpts=%d release-ckpts=%d replayed-ops=%d lent-decodes=%d lent-redecodes=%d resent=%d resent-B=%d recv-idle-s/proc=%.4f recv-queued-s/proc=%.4f",
		r.Procs, r.Elapsed, r.CheckpointsPerProcPerSec(), r.PctSendsCausingCheckpoint(),
		r.ForceCkptMsgsPerProcPerSec(), r.ForcedCkptsPerProcPerSec(), r.MissRatePct(),
		r.SnapCacheHitPct(), r.Total.SnapCacheBytesSaved, r.Total.DupSendsAvoided, r.AcksPerCheckpoint(),
		r.Total.MidstepCkpts, r.Total.ReleaseCkpts, r.Total.ReplayedOps, r.Total.LentDecodes, r.Total.LentRedecodes,
		r.Total.Resent, r.Total.ResentBytes, r.RecvIdleSecPerProc(), r.RecvQueuedSecPerProc())
}
