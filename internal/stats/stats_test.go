package stats

import (
	"strings"
	"sync"
	"testing"
)

func TestSnapshotAndAdd(t *testing.T) {
	var p Proc
	p.Checkpoints.Add(3)
	p.ObjectSends.Add(10)
	p.CkptCausingSends.Add(2)
	p.SharedAccesses.Add(100)
	p.Misses.Add(7)

	s := p.Snapshot()
	if s.Checkpoints != 3 || s.ObjectSends != 10 || s.Misses != 7 {
		t.Fatalf("snapshot %+v", s)
	}
	var sum Snapshot
	sum.Add(s)
	sum.Add(s)
	if sum.Checkpoints != 6 || sum.SharedAccesses != 200 {
		t.Fatalf("sum %+v", sum)
	}
}

func TestReportRates(t *testing.T) {
	r := Report{
		Procs:   4,
		Elapsed: 2,
		Total: Snapshot{
			Checkpoints:       80,
			ForcedCheckpoints: 8,
			ForceCkptMsgsSent: 16,
			ObjectSends:       1000,
			CkptCausingSends:  50,
			SharedAccesses:    10000,
			Misses:            300,
			CkptAcks:          200,
		},
		RecvIdleUS:   6e6,
		RecvQueuedUS: 1e6,
	}
	if got := r.CheckpointsPerProcPerSec(); got != 10 {
		t.Fatalf("ckpts/proc/s = %v", got)
	}
	if got := r.PctSendsCausingCheckpoint(); got != 5 {
		t.Fatalf("send pct = %v", got)
	}
	if got := r.ForceCkptMsgsPerProcPerSec(); got != 2 {
		t.Fatalf("force msgs = %v", got)
	}
	if got := r.ForcedCkptsPerProcPerSec(); got != 1 {
		t.Fatalf("forced ckpts = %v", got)
	}
	if got := r.MissRatePct(); got != 3 {
		t.Fatalf("miss rate = %v", got)
	}
	if got := r.AcksPerCheckpoint(); got != 2.5 {
		t.Fatalf("acks per checkpoint = %v", got)
	}
	if idle, queued := r.RecvIdleSecPerProc(), r.RecvQueuedSecPerProc(); idle != 1.5 || queued != 0.25 {
		t.Fatalf("receive waits = %v idle, %v queued s/proc", idle, queued)
	}
}

func TestReportZeroDenominators(t *testing.T) {
	var r Report
	if r.CheckpointsPerProcPerSec() != 0 || r.PctSendsCausingCheckpoint() != 0 ||
		r.MissRatePct() != 0 || r.ForceCkptMsgsPerProcPerSec() != 0 ||
		r.ForcedCkptsPerProcPerSec() != 0 || r.AcksPerCheckpoint() != 0 || r.RecvIdleSecPerProc() != 0 || r.RecvQueuedSecPerProc() != 0 {
		t.Fatal("zero report produced nonzero rates")
	}
}

func TestStringContainsRows(t *testing.T) {
	r := Report{Procs: 2, Elapsed: 1}
	s := r.String()
	for _, want := range []string{"ckpts/proc/s", "miss%", "force-msgs", "dup-sends-avoided", "acks/ckpt", "midstep-ckpts", "release-ckpts", "replayed-ops", "lent-decodes", "lent-redecodes", "resent=", "resent-B=", "recv-idle-s/proc", "recv-queued-s/proc"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report %q missing %q", s, want)
		}
	}
}

func TestConcurrentUpdates(t *testing.T) {
	var p Proc
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				p.SharedAccesses.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := p.Snapshot().SharedAccesses; got != 8000 {
		t.Fatalf("lost updates: %d", got)
	}
}
