package sam

import (
	"fmt"
	"testing"
	"time"

	"samft/internal/codec"
	"samft/internal/ft"
	"samft/internal/netsim"
	"samft/internal/pvm"
	"samft/internal/trace"
)

// TestStalledRuntimeHandlesEveryFrameInOrder sends a process more frames
// than its runtime queue holds while the runtime loop is not running: the
// receiver fills the queue and parks, the rest wait in the mailbox, and
// once the runtime starts every frame is handled, in the order it was
// sent.
func TestStalledRuntimeHandlesEveryFrameInOrder(t *testing.T) {
	const n, extra = 2, 64
	tr := trace.New(1 << 14)
	m := pvm.NewMachine(netsim.Config{Trace: tr})
	block := make(chan struct{})
	tasks := make([]*pvm.Task, n)
	tids := make([]pvm.TID, n)
	for i := range tasks {
		tasks[i] = m.Spawn(fmt.Sprintf("t%d", i), func(*pvm.Task) { <-block })
		tids[i] = tasks[i].TID()
	}
	t.Cleanup(func() {
		close(block)
		m.Halt()
	})
	p := NewProc(tasks[0], Config{Rank: 0, Ranks: tids, Policy: ft.PolicyOff})
	go p.receiver() // the runtime loop is not running yet

	// Reads of a name homed here that nobody registered: each one parks
	// in the directory, so handling a frame sends nothing.
	name := nameHomedAt(t, n, 0)
	frame, err := codec.Pack(&wire{Kind: kReadReq, SrcRank: 1, Name: uint64(name)})
	if err != nil {
		t.Fatal(err)
	}
	total := cap(p.netq) + extra
	for i := 0; i < total; i++ {
		if err := tasks[1].Send(tids[0], TagSAM, frame); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(p.netq) < cap(p.netq) {
		if time.Now().After(deadline) {
			t.Fatalf("receiver moved %d of %d frames into a queue of %d", len(p.netq), total, cap(p.netq))
		}
		time.Sleep(time.Millisecond)
	}

	go p.runtime()
	for p.ProcessedCount() < int64(total) {
		if time.Now().After(deadline) {
			t.Fatalf("runtime handled %d of %d frames", p.ProcessedCount(), total)
		}
		time.Sleep(time.Millisecond)
	}
	var ids []int64
	for _, e := range tasks[0].Endpoint().TraceRecorder().Events() {
		if e.Kind == trace.NetRecv && e.Src == int64(tids[1]) {
			ids = append(ids, e.MsgID)
		}
	}
	if len(ids) != total {
		t.Fatalf("%d frames handled, want %d", len(ids), total)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("frame %d handled after frame %d: %v", ids[i], ids[i-1], ids)
		}
	}
}
