package netsim

import (
	"sync"
	"testing"
)

// chaosNet builds a network with the given fault plan and e endpoints.
func chaosNet(t *testing.T, plan FaultPlan, eps int) (*Network, []*Endpoint) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Chaos = plan
	n := New(cfg)
	t.Cleanup(n.Close)
	out := make([]*Endpoint, eps)
	for i := range out {
		out[i] = n.NewEndpoint()
	}
	return n, out
}

func TestChaosJitterPerturbsArrivalReproducibly(t *testing.T) {
	run := func(seed uint64) []float64 {
		_, eps := chaosNet(t, FaultPlan{ChaosSeed: seed, JitterUS: 200}, 2)
		a, b := eps[0], eps[1]
		arrivals := make([]float64, 0, 8)
		for i := 0; i < 8; i++ {
			if err := a.Send(b.TID(), 7, []byte("payload")); err != nil {
				t.Fatalf("send: %v", err)
			}
			m, ok, err := b.TryRecv(AnySrc, 7)
			if err != nil || !ok {
				t.Fatalf("recv: %v %v", m, err)
			}
			arrivals = append(arrivals, m.ArrivalUS)
		}
		return arrivals
	}

	base := run(0) // zero seed still jitters; baseline for comparison
	jittered := run(99)
	again := run(99)

	differ := false
	for i := range base {
		if base[i] != jittered[i] {
			differ = true
		}
		if jittered[i] != again[i] {
			t.Fatalf("arrival %d not reproducible for the same seed: %v vs %v", i, jittered[i], again[i])
		}
	}
	if !differ {
		t.Fatal("different seeds produced identical jitter sequences")
	}

	// And jitter never reorders a message before its unjittered cost.
	_, eps := chaosNet(t, FaultPlan{ChaosSeed: 7, JitterUS: 50}, 2)
	a, b := eps[0], eps[1]
	cost := DefaultConfig().Cost
	if err := a.Send(b.TID(), 7, []byte("xy")); err != nil {
		t.Fatalf("send: %v", err)
	}
	m, _, _ := b.TryRecv(AnySrc, 7)
	min := cost.SendOverheadUS + cost.TransferUS(2)
	if m.ArrivalUS < min || m.ArrivalUS >= min+50 {
		t.Fatalf("jittered arrival %v outside [%v, %v)", m.ArrivalUS, min, min+50)
	}
}

func TestChaosDropNotifyNeverDropsAll(t *testing.T) {
	// Across many seeds and a wide fan-out, at least one watcher must
	// always see the exit — a fully dropped fan-out would model a failed
	// detector, not a network fault, and would hang the recovery protocol.
	for seed := uint64(0); seed < 30; seed++ {
		func() {
			const watchers = 6
			plan := FaultPlan{ChaosSeed: seed, NotifyDrop: true}
			n, eps := chaosNet(t, plan, watchers+1)
			victim := eps[0]
			for _, w := range eps[1:] {
				n.Notify(w.TID(), victim.TID(), 1)
			}
			if !n.Kill(victim.TID(), 1) {
				t.Fatalf("seed %d: kill was a no-op", seed)
			}
			delivered := 0
			for _, w := range eps[1:] {
				for {
					_, ok, err := w.TryRecv(AnySrc, 1)
					if err != nil || !ok {
						break
					}
					delivered++
				}
			}
			if delivered == 0 {
				t.Fatalf("seed %d: every exit notification was dropped", seed)
			}
			if delivered > watchers {
				t.Fatalf("seed %d: %d notifications delivered with only drops enabled", seed, delivered)
			}
		}()
	}
}

// TestChaosDropNotifyDeadWatcherDoesNotAbsorbGuarantee covers the
// simultaneous-failure hole: when a registered watcher is itself already
// dead, it must not count toward the at-least-one-delivery floor — the
// guaranteed copy could land on the dead endpoint and vanish, leaving
// the kill unobserved by every live process.
func TestChaosDropNotifyDeadWatcherDoesNotAbsorbGuarantee(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		func() {
			plan := FaultPlan{ChaosSeed: seed, NotifyDrop: true}
			n, eps := chaosNet(t, plan, 3)
			victim, deadWatcher, liveWatcher := eps[0], eps[1], eps[2]
			n.Notify(deadWatcher.TID(), victim.TID(), 1)
			n.Notify(liveWatcher.TID(), victim.TID(), 1)

			// The first watcher dies before the victim: it can no longer
			// observe anything.
			n.Kill(deadWatcher.TID(), 1)
			n.Kill(victim.TID(), 1)

			got := 0
			for {
				_, ok, err := liveWatcher.TryRecv(victim.TID(), 1)
				if err != nil || !ok {
					break
				}
				got++
			}
			if got == 0 {
				t.Fatalf("seed %d: the only live watcher missed the exit notification", seed)
			}
		}()
	}
}

func TestChaosDupNotifyDuplicatesSome(t *testing.T) {
	// With duplication on (and drops off) every watcher gets at least one
	// copy, and across seeds some watcher gets two.
	sawDup := false
	for seed := uint64(0); seed < 30 && !sawDup; seed++ {
		const watchers = 6
		plan := FaultPlan{ChaosSeed: seed, NotifyDup: true}
		n, eps := chaosNet(t, plan, watchers+1)
		victim := eps[0]
		for _, w := range eps[1:] {
			n.Notify(w.TID(), victim.TID(), 1)
		}
		n.Kill(victim.TID(), 1)
		for _, w := range eps[1:] {
			got := 0
			for {
				_, ok, err := w.TryRecv(AnySrc, 1)
				if err != nil || !ok {
					break
				}
				got++
			}
			if got == 0 {
				t.Fatalf("seed %d: a notification was dropped with only dup enabled", seed)
			}
			if got == 2 {
				sawDup = true
			}
			if got > 2 {
				t.Fatalf("seed %d: %d copies delivered, want at most 2", seed, got)
			}
		}
	}
	if !sawDup {
		t.Fatal("no duplicated notification across 30 seeds")
	}
}

// TestNotifyOnDeadTargetDeliversImmediately is the regression test for
// the Notify/Kill race fix: watching an already-dead (or never-known)
// target must synchronously deliver a drainable exit notification rather
// than registering a watcher that will never fire.
func TestNotifyOnDeadTargetDeliversImmediately(t *testing.T) {
	n, eps := chaosNet(t, FaultPlan{ChaosSeed: 1}, 2)
	w, victim := eps[0], eps[1]

	n.Kill(victim.TID(), 1)
	n.Notify(w.TID(), victim.TID(), 1)
	m, ok, err := w.TryRecv(AnySrc, 1)
	if err != nil || !ok {
		t.Fatalf("no immediate exit for a dead target: %v %v", m, err)
	}
	if dead, _ := ParseExitPayload(m.Payload); dead != victim.TID() {
		t.Fatalf("exit names %v, want %v", dead, victim.TID())
	}

	// Unknown target: same immediate delivery.
	n.Notify(w.TID(), TID(9999), 1)
	if _, ok, _ := w.TryRecv(AnySrc, 1); !ok {
		t.Fatal("no immediate exit for an unknown target")
	}
}

// TestNotifyKillRaceNeverLosesNotification hammers concurrent Notify and
// Kill on the same target: whichever side wins, the watcher must receive
// exactly one exit notification (no chaos flags here — the guarantee is
// the base network's).
func TestNotifyKillRaceNeverLosesNotification(t *testing.T) {
	for i := 0; i < 200; i++ {
		n := New(DefaultConfig())
		w := n.NewEndpoint()
		victim := n.NewEndpoint()
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			n.Notify(w.TID(), victim.TID(), 1)
		}()
		go func() {
			defer wg.Done()
			n.Kill(victim.TID(), 1)
		}()
		wg.Wait()
		_, ok, err := w.TryRecv(AnySrc, 1)
		if err != nil || !ok {
			t.Fatalf("iter %d: exit notification lost in the Notify/Kill race", i)
		}
		if _, extra, _ := w.TryRecv(AnySrc, 1); extra {
			t.Fatalf("iter %d: duplicate exit notification without NotifyDup", i)
		}
		n.Close()
	}
}

// TestNotifyAfterCloseDoesNotPanic: a watcher registering on a closed
// network must get the immediate-death path, not a hang or panic.
func TestNotifyAfterClose(t *testing.T) {
	n := New(DefaultConfig())
	w := n.NewEndpoint()
	victim := n.NewEndpoint()
	n.Close()
	n.Notify(w.TID(), victim.TID(), 1)
	// The endpoint is closed, so the exit may be undeliverable; the call
	// just must not panic or register a watcher on a closed network.
}
