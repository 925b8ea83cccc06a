package cluster_test

import (
	"testing"
	"time"

	"samft/internal/ckptstore"
	"samft/internal/cluster"
	"samft/internal/codec"
	"samft/internal/ft"
	"samft/internal/sam"
	"samft/internal/trace"
)

type killTestState struct {
	Step int64
}

func init() { codec.Register("cluster.killTestState", killTestState{}) }

// gateApp parks every rank in step 1 until release is closed, giving the
// test a window in which all ranks are provably live.
type gateApp struct {
	release <-chan struct{}
	st      killTestState
}

func (a *gateApp) Init(*sam.Proc) {}

func (a *gateApp) Step(p *sam.Proc, step int64) bool {
	if step == 1 {
		<-a.release
	}
	p.Compute(50)
	a.st.Step = step
	return step < 2
}

func (a *gateApp) Snapshot() interface{} { return &a.st }
func (a *gateApp) Restore(s interface{}) { a.st = *(s.(*killTestState)) }

// TestClusterKillSemantics pins down Kill's documented contract: it is a
// safe no-op returning false on an out-of-range rank, a never-started
// incarnation, a rank whose application has finished, and a halted
// cluster; it returns true exactly when a live process was killed (and
// the computation still completes via recovery).
func TestClusterKillSemantics(t *testing.T) {
	release := make(chan struct{})
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()

	cl := cluster.New(cluster.Config{
		N:      2,
		Policy: ft.PolicySAM,
		Degree: 1,
		AppFactory: func(rank int) sam.App {
			return &gateApp{release: release}
		},
	})

	// Before Start: no incarnation exists yet.
	if cl.Kill(0) {
		t.Error("Kill on a never-started incarnation returned true")
	}

	cl.Start()

	// Out-of-range ranks are rejected outright.
	if cl.Kill(-1) {
		t.Error("Kill(-1) returned true")
	}
	if cl.Kill(2) {
		t.Error("Kill(N) returned true")
	}

	// Both ranks are parked in step 1: this kill must hit a live process.
	if !cl.Kill(1) {
		t.Error("Kill on a live rank returned false")
	}

	close(release)
	if err := cl.WaitFinished(2 * time.Minute); err != nil {
		t.Fatalf("computation did not survive the injected kill: %v", err)
	}

	// The application has finished everywhere: further kills are no-ops.
	if cl.Kill(0) {
		t.Error("Kill on a finished rank returned true")
	}

	cl.Halt()
	if cl.Kill(1) {
		t.Error("Kill on a halted cluster returned true")
	}
	if err := cl.Err(); err != nil {
		t.Fatalf("unexpected task error: %v", err)
	}
}

// aheadApp computes for computeUS modeled microseconds in step 1, says so on
// ready and waits for release.
type aheadApp struct {
	computeUS float64
	ready     chan<- struct{}
	release   <-chan struct{}
	st        killTestState
}

func (a *aheadApp) Init(*sam.Proc) {}

func (a *aheadApp) Step(p *sam.Proc, step int64) bool {
	if step == 1 {
		p.Compute(a.computeUS)
		a.ready <- struct{}{}
		<-a.release
	}
	a.st.Step = step
	return step < 2
}

func (a *aheadApp) Snapshot() interface{} { return &a.st }
func (a *aheadApp) Restore(s interface{}) { a.st = *(s.(*killTestState)) }

// TestReplacementIsBornNoEarlierThanTheKill: the coordinator respawns a
// failed rank at its own modeled instant, so a recovery window measured from
// the replacement's first event starts at the restart, not at the beginning
// of the run. (Replacements used to start with their clock at 0.)
func TestReplacementIsBornNoEarlierThanTheKill(t *testing.T) {
	ready, release := make(chan struct{}, 3), make(chan struct{})
	tr := trace.New(0)
	cl := cluster.New(cluster.Config{
		N: 2, Policy: ft.PolicySAM, Degree: 1, Tracer: tr,
		AppFactory: func(rank int) sam.App {
			us := 100.0
			if rank == 0 {
				us = 50000 // the coordinator is far ahead of the victim
			}
			return &aheadApp{computeUS: us, ready: ready, release: release}
		},
	})
	cl.Start()
	defer cl.Halt()
	<-ready
	<-ready
	if !cl.Kill(1) {
		t.Fatal("setup: the kill did not hit a live process")
	}
	close(release)
	if err := cl.WaitFinished(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	cl.Halt()

	killUS, bornUS := -1.0, -1.0
	for _, tk := range tr.Snapshot() {
		for _, e := range tk.Events {
			if e.Kind == trace.ClusterKill && e.Rank == 1 {
				killUS = e.VirtUS
			}
		}
		if tk.Label == "rank1-r" && len(tk.Events) > 0 {
			bornUS = tk.Events[0].VirtUS
		}
	}
	if killUS <= 0 || bornUS < 0 {
		t.Fatalf("setup: kill at %v µs, replacement's first event at %v µs", killUS, bornUS)
	}
	if bornUS < killUS {
		t.Fatalf("the replacement's first event is at %.1f µs, before the kill at %.1f µs", bornUS, killUS)
	}
}

// stallApp is TestQuiesceCountsUnhandledFrames' application. Rank 1's first
// Snapshot — taken on its runtime goroutine, inside the initial
// step-boundary command — closes stalled and blocks until release is
// closed; rank 0 waits for stalled, then registers a value homed at rank 1,
// so the registration reaches a runtime that cannot handle it.
type stallApp struct {
	rank       int
	name       sam.Name        // homed at rank 1
	stalled    chan struct{}   // closed by rank 1 once its runtime is inside Snapshot
	registered chan<- struct{} // rank 0: the registration has been sent
	release    <-chan struct{}
	snapshots  int
	st         killTestState
}

func (a *stallApp) Init(p *sam.Proc) {
	if a.rank == 0 {
		<-a.stalled
		p.CreateValue(a.name, &killTestState{Step: 7}, sam.Unlimited)
		close(a.registered)
	}
}

func (a *stallApp) Step(p *sam.Proc, step int64) bool {
	a.st.Step = step
	return false
}

func (a *stallApp) Snapshot() interface{} {
	a.snapshots++
	if a.rank == 1 && a.snapshots == 1 {
		close(a.stalled)
		<-a.release
	}
	return &a.st
}

func (a *stallApp) Restore(s interface{}) { a.st = *(s.(*killTestState)) }

// TestQuiesceCountsUnhandledFrames: a frame the receiver goroutine has
// already moved out of the mailbox, bound for a runtime that is busy, is
// neither pending in the endpoint nor a change in anyone's progress — a
// cluster sampled for stability looks drained. Quiesce counts instead:
// frames delivered against frames whose handler returned, so it cannot
// report quiescence while rank 1 sits on rank 0's registration.
func TestQuiesceCountsUnhandledFrames(t *testing.T) {
	name := sam.Name(1)
	for ckptstore.HomeRank(uint64(name), 2) != 1 {
		name++
	}
	registered, stalled, release := make(chan struct{}), make(chan struct{}), make(chan struct{})
	cl := cluster.New(cluster.Config{
		N:      2,
		Policy: ft.PolicySAM,
		Degree: 1,
		AppFactory: func(rank int) sam.App {
			a := &stallApp{rank: rank, name: name, stalled: stalled, release: release}
			if rank == 0 {
				a.registered = registered
			}
			return a
		},
	})
	cl.Start()
	defer cl.Halt()
	<-registered
	if cl.Quiesce(50 * time.Millisecond) {
		t.Error("Quiesce reported a drained cluster while rank 1 had not handled rank 0's registration")
	}
	close(release)
	if err := cl.WaitFinished(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if !cl.Quiesce(10 * time.Second) {
		t.Error("Quiesce never reported the finished cluster drained")
	}
}
