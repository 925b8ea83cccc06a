// Package apps_test runs the three paper applications end-to-end on the
// simulated cluster under every fault-tolerance policy, checks that
// results are identical with and without fault tolerance, and that each
// application survives process kills.
package apps_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"samft/internal/apps/barnes"
	"samft/internal/apps/gps"
	"samft/internal/apps/water"
	"samft/internal/cluster"
	"samft/internal/ft"
	"samft/internal/sam"
)

// resultLog stores the first value recorded per key (replays may deliver
// duplicates; the protocol guarantees they are identical, which we check).
type resultLog struct {
	mu   sync.Mutex
	vals map[int64]float64
	t    *testing.T
}

func newResultLog(t *testing.T) *resultLog {
	return &resultLog{vals: make(map[int64]float64), t: t}
}

func (l *resultLog) put(k int64, v float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if old, ok := l.vals[k]; ok {
		if old != v {
			l.t.Errorf("key %d: replay produced %v, original %v", k, v, old)
		}
		return
	}
	l.vals[k] = v
}

func (l *resultLog) get(k int64) (float64, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	v, ok := l.vals[k]
	return v, ok
}

// ---- GPS ----

func gpsParams() gps.Params {
	p := gps.DefaultParams()
	p.Population = 64
	p.Generations = 4
	p.Samples = 16
	return p
}

func runGPS(t *testing.T, n int, policy ft.Policy, kill func(*cluster.Cluster, int, int64)) float64 {
	t.Helper()
	log := newResultLog(t)
	var cl *cluster.Cluster
	cl = cluster.New(cluster.Config{
		N:      n,
		Policy: policy,
		AppFactory: func(rank int) sam.App {
			a := gps.New(rank, n, gpsParams())
			if rank == 0 {
				a.OnResult = func(best float64) { log.put(0, best) }
			}
			if kill != nil {
				orig := a
				_ = orig
			}
			return &hooked{App: a, hook: func(r int, s int64) {
				if kill != nil {
					kill(cl, r, s)
				}
			}, rank: rank}
		},
	})
	if _, err := cl.Run(120 * time.Second); err != nil {
		t.Fatalf("gps cluster: %v", err)
	}
	v, ok := log.get(0)
	if !ok {
		t.Fatal("gps reported no result")
	}
	return v
}

// hooked wraps an App with a per-step hook for kill injection.
type hooked struct {
	sam.App
	hook func(rank int, step int64)
	rank int
}

func (h *hooked) Step(p *sam.Proc, step int64) bool {
	if h.hook != nil {
		h.hook(h.rank, step)
	}
	return h.App.Step(p, step)
}

func TestGPSDeterministicAcrossPolicies(t *testing.T) {
	base := runGPS(t, 4, ft.PolicyOff, nil)
	if base <= 0 {
		t.Fatalf("suspicious best fitness %v", base)
	}
	withFT := runGPS(t, 4, ft.PolicySAM, nil)
	if withFT != base {
		t.Fatalf("FT changed the result: %v vs %v", withFT, base)
	}
	naive := runGPS(t, 4, ft.PolicyNaive, nil)
	if naive != base {
		t.Fatalf("naive policy changed the result: %v vs %v", naive, base)
	}
}

func TestGPSDifferentClusterSizesAgreeInQuality(t *testing.T) {
	// Evolution differs across layouts (different migration structure),
	// but both must produce a finite positive RMS error.
	a := runGPS(t, 2, ft.PolicyOff, nil)
	b := runGPS(t, 4, ft.PolicyOff, nil)
	if a <= 0 || b <= 0 {
		t.Fatalf("bad fitness values %v %v", a, b)
	}
}

func TestGPSSurvivesKill(t *testing.T) {
	var once sync.Once
	base := runGPS(t, 4, ft.PolicyOff, nil)
	got := runGPS(t, 4, ft.PolicySAM, func(cl *cluster.Cluster, rank int, step int64) {
		if rank == 2 && step >= 2 {
			once.Do(func() { cl.Kill(2) })
		}
	})
	if got != base {
		t.Fatalf("result after kill %v differs from baseline %v", got, base)
	}
}

// ---- Water ----

func waterParams() water.Params {
	p := water.DefaultParams()
	p.Molecules = 64
	p.Steps = 3
	p.TasksPerStep = 8
	return p
}

func runWater(t *testing.T, n int, policy ft.Policy, kill func(*cluster.Cluster, int, int64)) map[int64]float64 {
	t.Helper()
	log := newResultLog(t)
	var cl *cluster.Cluster
	cl = cluster.New(cluster.Config{
		N:      n,
		Policy: policy,
		AppFactory: func(rank int) sam.App {
			a := water.New(rank, n, waterParams())
			if rank == 0 {
				a.OnEnergy = func(step int64, e float64) { log.put(step, e) }
			}
			return &hooked{App: a, hook: func(r int, s int64) {
				if kill != nil {
					kill(cl, r, s)
				}
			}, rank: rank}
		},
	})
	if _, err := cl.Run(120 * time.Second); err != nil {
		t.Fatalf("water cluster: %v", err)
	}
	out := make(map[int64]float64)
	for s := int64(1); s <= waterParams().Steps; s++ {
		v, ok := log.get(s)
		if !ok {
			t.Fatalf("missing energy for step %d", s)
		}
		out[s] = v
	}
	return out
}

func TestWaterEnergyDeterministicAcrossPolicies(t *testing.T) {
	base := runWater(t, 3, ft.PolicyOff, nil)
	ftRun := runWater(t, 3, ft.PolicySAM, nil)
	for s, v := range base {
		if ftRun[s] != v {
			t.Fatalf("step %d energy: FT %v vs base %v", s, ftRun[s], v)
		}
	}
}

func TestWaterIndependentOfClusterSize(t *testing.T) {
	// The physics must not depend on how many workstations run it.
	a := runWater(t, 2, ft.PolicyOff, nil)
	b := runWater(t, 4, ft.PolicyOff, nil)
	for s, v := range a {
		if b[s] != v {
			t.Fatalf("step %d energy differs across cluster sizes: %v vs %v", s, b[s], v)
		}
	}
}

func TestWaterSurvivesMainKill(t *testing.T) {
	base := runWater(t, 3, ft.PolicyOff, nil)
	var once sync.Once
	got := runWater(t, 3, ft.PolicySAM, func(cl *cluster.Cluster, rank int, step int64) {
		if rank == 0 && step >= 2 {
			once.Do(func() { cl.Kill(0) })
		}
	})
	for s, v := range base {
		if got[s] != v {
			t.Fatalf("step %d energy after main kill: %v vs %v", s, got[s], v)
		}
	}
}

// ---- Barnes-Hut ----

func barnesParams() barnes.Params {
	p := barnes.DefaultParams()
	p.Bodies = 96
	p.Steps = 3
	return p
}

// runBarnes returns the Digest of the bodies rank 0 gathered at each step,
// and checks on the way that every step's tree holds a total mass of ~1.
func runBarnes(t *testing.T, n int, policy ft.Policy, kill func(*cluster.Cluster, int, int64)) map[int64]float64 {
	t.Helper()
	log := newResultLog(t)
	var cl *cluster.Cluster
	cl = cluster.New(cluster.Config{
		N:      n,
		Policy: policy,
		AppFactory: func(rank int) sam.App {
			a := barnes.New(rank, n, barnesParams())
			if rank == 0 {
				a.OnStep = func(step int64, mass, digest float64) {
					if mass < 0.99 || mass > 1.01 {
						t.Errorf("step %d: tree mass %v, want ~1", step, mass)
					}
					log.put(step, digest)
				}
			}
			return &hooked{App: a, hook: func(r int, s int64) {
				if kill != nil {
					kill(cl, r, s)
				}
			}, rank: rank}
		},
	})
	if _, err := cl.Run(120 * time.Second); err != nil {
		t.Fatalf("barnes cluster: %v", err)
	}
	out := make(map[int64]float64)
	for s := int64(1); s <= barnesParams().Steps; s++ {
		v, ok := log.get(s)
		if !ok {
			t.Fatalf("missing body digest for step %d", s)
		}
		out[s] = v
	}
	return out
}

func TestBarnesMassConservedAndFTDeterministic(t *testing.T) {
	base := runBarnes(t, 4, ft.PolicyOff, nil)
	ftRun := runBarnes(t, 4, ft.PolicySAM, nil)
	for s, d := range base {
		if ftRun[s] != d {
			t.Fatalf("step %d body digest: FT %v vs base %v", s, ftRun[s], d)
		}
	}
}

func TestBarnesSurvivesKill(t *testing.T) {
	base := runBarnes(t, 4, ft.PolicyOff, nil)
	var once sync.Once
	got := runBarnes(t, 4, ft.PolicySAM, func(cl *cluster.Cluster, rank int, step int64) {
		if rank == 1 && step >= 2 {
			once.Do(func() { cl.Kill(1) })
		}
	})
	for s, d := range base {
		if got[s] != d {
			t.Fatalf("step %d body digest after kill: %v vs %v", s, got[s], d)
		}
	}
}

// momentsProbe is rank 0's Barnes-Hut app, which after its last step waits
// for every rank's last partition — created after that rank's last octant
// update — and then totals the octant accumulators' body counts.
type momentsProbe struct {
	*barnes.App
	n     int
	steps int64
	total *atomic.Int64
}

func (m *momentsProbe) Step(p *sam.Proc, step int64) bool {
	if m.App.Step(p, step) {
		return true
	}
	const famPart, famMom = 35, 36 // barnes' name families
	for r := 0; r < m.n; r++ {
		p.UseValue(sam.MkName(famPart, int(m.steps), r))
		p.DoneValue(sam.MkName(famPart, int(m.steps), r))
	}
	var total int64
	for oct := 0; oct < 8; oct++ {
		total += p.UpdateAccum(sam.MkName(famMom, oct, 0)).(*barnes.Moments).Count
		p.ReleaseAccum(sam.MkName(famMom, oct, 0))
	}
	m.total.Store(total)
	return false
}

// TestBarnesMidstepKillKeepsTheMoments: Barnes-Hut's answer, the digest of
// the bodies, never depends on the octant accumulators, so it cannot show
// an update lost or applied twice. Kills that land in the accumulator
// phase — when rank 0, first in the octant chain, begins a step, the later
// ranks are between octant updates — make replacements replay logged
// updates; every rank's update must still count exactly once.
func TestBarnesMidstepKillKeepsTheMoments(t *testing.T) {
	const n = 8
	prm := barnesParams()
	var total, killed atomic.Int64
	kills := map[int64]int{2: 6, 3: 5} // rank 0's step -> victim
	var cl *cluster.Cluster
	cl = cluster.New(cluster.Config{
		N: n, Policy: ft.PolicySAM,
		AppFactory: func(rank int) sam.App {
			a := barnes.New(rank, n, prm)
			if rank != 0 {
				return a
			}
			return &hooked{App: &momentsProbe{App: a, n: n, steps: prm.Steps, total: &total}, rank: rank,
				hook: func(_ int, step int64) {
					if v, ok := kills[step]; ok && cl.Kill(v) {
						killed.Add(1)
					}
				}}
		},
	})
	rep, err := cl.Run(120 * time.Second)
	if err != nil {
		t.Fatalf("barnes cluster: %v", err)
	}
	if killed.Load() != 2 {
		t.Fatalf("%d kills hit a live process, want 2", killed.Load())
	}
	if want := int64(prm.Bodies) * prm.Steps; total.Load() != want {
		t.Fatalf("octant counts total %d after kills (%d logged results replayed), want %d", total.Load(), rep.Total.ReplayedOps, want)
	}
	t.Logf("%d logged results replayed", rep.Total.ReplayedOps)
}
