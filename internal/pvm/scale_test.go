package pvm

import (
	"encoding/binary"
	"fmt"
	"testing"
	"time"

	"samft/internal/netsim"
)

// TestThousandProcessRing is the fabric scale smoke test: 1000 tasks are
// spawned, exchange tokens around a ring, one is killed mid-run, its
// death is observed through the notification machinery, a replacement is
// spawned, and the ring completes another epoch through the new
// incarnation. The whole scenario must finish in bounded wall time —
// it exercises the copy-on-write routing table (1000 registrations), a
// thousand live mailboxes, and kill/notify at scale.
func TestThousandProcessRing(t *testing.T) {
	const (
		procs  = 1000
		rounds = 3

		tagCtl  = TagUserBase + 1 // coordinator -> task: epoch neighbors; empty payload = exit
		tagRing = TagUserBase + 2 // token passing
		tagDone = TagUserBase + 3 // task -> coordinator: epoch complete
	)

	deadline := time.AfterFunc(2*time.Minute, func() {
		panic("1000-process ring smoke test exceeded its wall-time bound")
	})
	defer deadline.Stop()

	cfg := netsim.DefaultConfig()
	// Chaos on: seeded per-message jitter perturbs modeled arrival times
	// throughout, so the scale run exercises the fault-injection plumbing
	// alongside the endpoint queues and COW routing.
	cfg.Chaos = netsim.FaultPlan{ChaosSeed: 7, JitterUS: 25}
	m := NewMachine(cfg)
	defer m.Halt()
	coord := m.Network().NewEndpoint()

	// Task body: for each control message, run one epoch of ring exchange
	// with the neighbors it names, then report back. Control is received
	// by its exact tag: a fast neighbor may deliver next-epoch ring tokens
	// before this task has seen its control message, and those must stay
	// queued for the exchange loop's exact (prev, tagRing) match.
	body := func(task *Task) {
		for {
			ctl, err := task.Recv(AnySrc, tagCtl)
			if err != nil || len(ctl.Payload) == 0 {
				return // killed, halted, or told to exit
			}
			prev := TID(binary.LittleEndian.Uint64(ctl.Payload[0:8]))
			next := TID(binary.LittleEndian.Uint64(ctl.Payload[8:16]))
			for r := 0; r < rounds; r++ {
				// A fresh buffer per send: the fabric hands payloads over
				// by reference, so an in-flight token must not be reused.
				token := make([]byte, 8)
				binary.LittleEndian.PutUint64(token, uint64(r))
				if task.Send(next, tagRing, token) != nil {
					return
				}
				in, err := task.Recv(prev, tagRing)
				if err != nil {
					return
				}
				if got := binary.LittleEndian.Uint64(in.Payload); got != uint64(r) {
					panic(fmt.Sprintf("task %d: round %d token = %d", task.TID(), r, got))
				}
			}
			if task.Send(ctl.Src, tagDone, nil) != nil {
				return
			}
		}
	}

	tasks := make([]*Task, procs)
	for i := range tasks {
		tasks[i] = m.Spawn(fmt.Sprintf("ring%d", i), body)
	}

	runEpoch := func() {
		for i, task := range tasks {
			ctl := make([]byte, 16)
			prev := tasks[(i+procs-1)%procs]
			next := tasks[(i+1)%procs]
			binary.LittleEndian.PutUint64(ctl[0:8], uint64(prev.TID()))
			binary.LittleEndian.PutUint64(ctl[8:16], uint64(next.TID()))
			if err := coord.Send(task.TID(), tagCtl, ctl); err != nil {
				t.Fatalf("ctl to task %d: %v", i, err)
			}
		}
		for i := 0; i < procs; i++ {
			if _, err := coord.Recv(netsim.AnySrc, tagDone); err != nil {
				t.Fatalf("awaiting epoch completions: %v", err)
			}
		}
	}

	runEpoch()

	// Kill a mid-ring task (idle between epochs, so no tokens are lost)
	// and observe the death through pvm_notify.
	victim := procs / 2
	victimTID := tasks[victim].TID()
	m.Network().Notify(coord.TID(), victimTID, TagTaskExit)
	if !m.Kill(victimTID) {
		t.Fatal("kill of live task reported no-op")
	}
	exit, err := coord.Recv(netsim.AnySrc, TagTaskExit)
	if err != nil {
		t.Fatalf("awaiting exit notification: %v", err)
	}
	if exit.Src != victimTID {
		t.Fatalf("exit notification names %d, want %d", exit.Src, victimTID)
	}
	select {
	case <-tasks[victim].Done():
	case <-time.After(time.Minute):
		t.Fatal("killed task's body did not unwind")
	}

	// Recover: a replacement joins under a brand-new tid (restarted PVM
	// tasks never reuse one) and the ring runs another epoch through it.
	tasks[victim] = m.Spawn(fmt.Sprintf("ring%d-recovered", victim), body)
	if tasks[victim].TID() == victimTID {
		t.Fatal("replacement task reused the dead incarnation's tid")
	}
	runEpoch()

	for _, task := range tasks {
		if err := coord.Send(task.TID(), tagCtl, nil); err != nil {
			t.Fatalf("exit to %d: %v", task.TID(), err)
		}
	}
}
