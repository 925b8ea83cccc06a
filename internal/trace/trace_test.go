package trace

import (
	"sync"
	"testing"
)

func TestNilTracerAndRecorderAreNoOps(t *testing.T) {
	var tr *Tracer
	if tr.Track(3) != nil {
		t.Fatal("nil tracer returned a live recorder")
	}
	if tr.Control() != nil {
		t.Fatal("nil tracer returned a live control recorder")
	}
	if tr.Snapshot() != nil {
		t.Fatal("nil tracer produced data")
	}

	var r *Recorder
	r.Emit(Event{Kind: NetSend}) // must not panic
	r.Label("x", 0)
	if r.Events() != nil || r.Dropped() != 0 {
		t.Fatal("nil recorder retained data")
	}
}

func TestRingWrap(t *testing.T) {
	tr := New(4)
	r := tr.Track(1)
	for i := 0; i < 10; i++ {
		r.Emit(Event{Kind: NetSend, VirtUS: float64(i), Aux: int64(i)})
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	// The survivors are the last four, in emission order, with their
	// original sequence numbers.
	for i, e := range evs {
		want := int64(6 + i)
		if e.Aux != want || e.Seq != uint64(want) {
			t.Fatalf("event %d: aux=%d seq=%d, want %d", i, e.Aux, e.Seq, want)
		}
	}
	if r.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", r.Dropped())
	}
}

// TestEmitAndTrackAllocateNothing pins the steady state every traced
// message goes through: Emit into a ring that has wrapped overwrites in
// place, and Track on a key that already has a recorder only looks it up.
func TestEmitAndTrackAllocateNothing(t *testing.T) {
	tr := New(4)
	r := tr.Track(1)
	for i := 0; i < 4; i++ {
		r.Emit(Event{Kind: NetSend})
	}
	if n := testing.AllocsPerRun(100, func() { r.Emit(Event{Kind: NetSend, Aux: 1}) }); n != 0 {
		t.Errorf("Emit on a full ring made %.1f allocs per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { tr.Track(1) }); n != 0 {
		t.Errorf("Track on an existing key made %.1f allocs per run, want 0", n)
	}
}

func TestConcurrentEmit(t *testing.T) {
	// Run with -race: many goroutines emitting into the same and different
	// tracks while a reader snapshots mid-flight.
	tr := New(64)
	var wg sync.WaitGroup
	const writers, per = 8, 500
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := tr.Track(int64(w % 3)) // contend on 3 tracks
			for i := 0; i < per; i++ {
				r.Emit(Event{Kind: NetRecv, VirtUS: float64(i), Src: int64(w)})
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			tr.Snapshot()
		}
	}()
	wg.Wait()
	<-done

	total := uint64(0)
	for _, s := range tr.Snapshot() {
		total += uint64(len(s.Events)) + s.Dropped
	}
	if total != writers*per {
		t.Fatalf("retained+dropped = %d, want %d", total, writers*per)
	}
}

func TestSnapshotLabels(t *testing.T) {
	tr := New(0)
	tr.Label(7, "rank0", 0)
	tr.Track(7).Emit(Event{Kind: PvmSpawn, VirtUS: 1})
	tr.Control().Emit(Event{Kind: ClusterKill, VirtUS: 2})
	tr.Track(9).Emit(Event{Kind: NetSend, VirtUS: 3})

	snaps := tr.Snapshot()
	if len(snaps) != 3 {
		t.Fatalf("snapshot %v", snaps)
	}
	if snaps[0].Label != "rank0" || snaps[0].Rank != 0 {
		t.Fatalf("labeled track = %q rank %d", snaps[0].Label, snaps[0].Rank)
	}
	if got := trackName(snaps[1].Key); got != "cluster" {
		t.Fatalf("control track = %q", got)
	}
	if got := trackName(snaps[2].Key); snaps[2].Label != "" || got != "tid9" {
		t.Fatalf("unlabeled track = %q (label %q)", got, snaps[2].Label)
	}
}
