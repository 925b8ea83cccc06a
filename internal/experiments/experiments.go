// Package experiments runs one configured cluster (Run) or a batch of them
// (RunAll) and collects the metrics. The paper's figures and ablations
// (`samrun paper`), every scenario (internal/scenario) and the
// repository's benchmark are built on it.
package experiments

import (
	"sync"
	"time"

	"samft/internal/apps/barnes"
	"samft/internal/apps/gps"
	"samft/internal/apps/water"
	"samft/internal/ckpt"
	"samft/internal/ckptstore"
	"samft/internal/cluster"
	"samft/internal/ft"
	"samft/internal/netsim"
	"samft/internal/sam"
	"samft/internal/stats"
	"samft/internal/trace"
)

// AppKind selects one of the paper's three applications.
type AppKind int

const (
	GPS AppKind = iota
	Water
	Barnes
)

func (k AppKind) String() string {
	switch k {
	case GPS:
		return "GPS"
	case Water:
		return "Water"
	case Barnes:
		return "Barnes-Hut"
	default:
		return "?"
	}
}

// Scale selects the workload size. Paper scale reproduces the published
// parameters (1000 individuals / 1728 molecules / 8000 bodies); Small is
// sized for tests and quick benches.
type Scale int

const (
	Small Scale = iota
	Paper
)

// KillEvent schedules one failure injection within a run; the cluster
// interprets the schedule (cluster.Config.Kills).
type KillEvent = cluster.KillEvent

// Spec describes one cluster run.
type Spec struct {
	App    AppKind
	N      int
	Policy ft.Policy
	Degree int
	// EagerFree selects the eager-free ablation (A4); the zero value is the
	// paper's lazy §4.3 protocol.
	EagerFree bool
	// Consistent wraps the app with the global-checkpointing baseline (A3).
	Consistent bool
	Scale      Scale
	// Kills is the failure-injection schedule (empty = fault-free run);
	// see cluster.Config.Kills.
	Kills []KillEvent
	// Chaos-network knobs: seeded per-message delay jitter (microseconds)
	// and exit-notification drop/duplication. Any nonzero setting attaches
	// a netsim fault plan seeded with ChaosSeed.
	ChaosSeed  uint64
	JitterUS   float64
	NotifyDrop bool
	NotifyDup  bool
	// CheckInvariants runs post-completion consistency checks (quiesce,
	// then per-rank state snapshots); violations land in the Result.
	CheckInvariants bool
	// Seed, when nonzero, overrides the application's default master seed
	// (per-cell seeds for sweeps that want independent datasets).
	Seed uint64
	// NoSnapCache disables the sam-layer snapshot cache (ablation).
	NoSnapCache bool
	// HostSlowdown scales rank r's modeled compute costs by HostSlowdown[r]
	// (> 1 = slower workstation); see cluster.Config.HostSlowdown.
	HostSlowdown []float64
	// Placement selects the checkpoint-copy placement policy (ring, the
	// default, or spread); see internal/ckptstore.
	Placement ckptstore.Kind
	// Tracer, when non-nil, records the run's virtual-time event timeline
	// (see internal/trace); analyze it after Run returns.
	Tracer *trace.Tracer
}

// Result is one run's outcome.
type Result struct {
	Spec       Spec
	ModeledSec float64
	Report     stats.Report
	// Answer is an application-level scalar used to cross-check that
	// different configurations compute the same thing (GPS best fitness,
	// Water final potential energy, Barnes-Hut final tree mass).
	Answer float64
	// KillsApplied counts kill events that actually took down a live
	// process (an event can be a no-op, e.g. an OnRecovery trigger whose
	// subject never failed).
	KillsApplied int
	// InvariantViolations holds post-run consistency failures (only
	// collected when Spec.CheckInvariants is set).
	InvariantViolations []string
}

type answerBox struct {
	mu  sync.Mutex
	v   float64
	set bool
}

func (a *answerBox) put(v float64) {
	a.mu.Lock()
	if !a.set {
		a.v = v
		a.set = true
	}
	a.mu.Unlock()
}

// get reads under the lock: the writer is an application callback on a
// cluster goroutine, not the goroutine that assembles the Result.
func (a *answerBox) get() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.v
}

// gpsParams / waterParams / barnesParams size the workloads.
func gpsParams(s Scale) gps.Params {
	p := gps.DefaultParams()
	if s == Small {
		p.Population = 96
		p.Generations = 5
		p.Samples = 24
		// Keep the modeled compute/communication ratio of the full-size
		// workload (evaluation dominates in GPS).
		p.EvalCostUS = 0.5
	}
	return p
}

func waterParams(s Scale) water.Params {
	p := water.DefaultParams()
	if s == Small {
		p.Molecules = 96
		p.Steps = 4
		p.TasksPerStep = 8
		p.PairCostUS = 0.5
	}
	return p
}

func barnesParams(s Scale) barnes.Params {
	p := barnes.DefaultParams()
	if s == Small {
		p.Bodies = 128
		p.Steps = 3
		p.BodyCostUS = 0.5
	}
	return p
}

// runTimeout bounds the host time Run waits for a run to finish. A
// paper-scale run takes about half a second; a run still going after this
// long is hung, and Run halts it and reports the timeout.
var runTimeout = 2 * time.Minute

// appFactory builds spec's application for each rank; rank 0's reports the
// run's answer into ans.
func appFactory(spec Spec, ans *answerBox) func(rank int) sam.App {
	return func(rank int) sam.App {
		var app sam.App
		switch spec.App {
		case GPS:
			gp := gpsParams(spec.Scale)
			if spec.Seed != 0 {
				gp.Seed = spec.Seed
			}
			a := gps.New(rank, spec.N, gp)
			if rank == 0 {
				a.OnResult = ans.put
			}
			app = a
		case Water:
			wp := waterParams(spec.Scale)
			if spec.Seed != 0 {
				wp.Seed = spec.Seed
			}
			a := water.New(rank, spec.N, wp)
			if rank == 0 {
				a.OnEnergy = func(step int64, e float64) {
					if step == wp.Steps {
						ans.put(e)
					}
				}
			}
			app = a
		case Barnes:
			bp := barnesParams(spec.Scale)
			if spec.Seed != 0 {
				bp.Seed = spec.Seed
			}
			a := barnes.New(rank, spec.N, bp)
			if rank == 0 {
				a.OnStep = func(step int64, mass float64) {
					if step == bp.Steps {
						ans.put(mass)
					}
				}
			}
			app = a
		}
		if spec.Consistent {
			app = ckpt.NewConsistent(app, rank, spec.N, ckpt.DefaultConsistentConfig())
		}
		return app
	}
}

// Run executes one spec to completion and collects the metrics. The cluster
// is halted by the time Run returns, whatever the outcome.
func Run(spec Spec) (Result, error) {
	spec.N = max(spec.N, 1)
	ans := &answerBox{}
	var chaos *netsim.FaultPlan
	if spec.JitterUS > 0 || spec.NotifyDrop || spec.NotifyDup {
		chaos = &netsim.FaultPlan{
			Seed:       spec.ChaosSeed,
			JitterUS:   spec.JitterUS,
			DropNotify: spec.NotifyDrop,
			DupNotify:  spec.NotifyDup,
		}
	}
	cl := cluster.New(cluster.Config{
		N:            spec.N,
		Policy:       spec.Policy,
		Degree:       spec.Degree,
		EagerFree:    spec.EagerFree,
		NoSnapCache:  spec.NoSnapCache,
		Placement:    spec.Placement,
		HostSlowdown: spec.HostSlowdown,
		AppFactory:   appFactory(spec, ans),
		Kills:        spec.Kills,
		Chaos:        chaos,
		Tracer:       spec.Tracer,
	})
	cl.Start()
	violations, err := settle(cl, spec, runTimeout)
	if err != nil {
		return Result{}, err
	}
	rep := cl.Report()
	return Result{
		Spec:                spec,
		ModeledSec:          rep.Elapsed,
		Report:              rep,
		Answer:              ans.get(),
		KillsApplied:        cl.KillsApplied(),
		InvariantViolations: violations,
	}, nil
}

// settle sees a started cluster through to its end: it waits (up to
// timeout) for every application to finish, halts the cluster whatever the
// outcome, and — when spec asks for the invariants — quiesces it first and
// returns the end-state violations.
func settle(cl *cluster.Cluster, spec Spec, timeout time.Duration) ([]string, error) {
	err := cl.WaitFinished(timeout)
	settled := err != nil || !spec.CheckInvariants || cl.Quiesce(10*time.Second)
	cl.Halt()
	if err == nil {
		err = cl.Err()
	}
	switch {
	case err != nil || !spec.CheckInvariants:
		return nil, err
	case !settled:
		return []string{"quiesce: protocol traffic did not settle"}, nil
	}
	return CheckInvariants(cl.InvariantSnapshots(), spec.N, max(spec.Degree, 1)), nil
}
