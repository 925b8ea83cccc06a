// Package cluster boots and drives a simulated network of workstations
// running SAM processes: it spawns one PVM task per rank, wires the rank
// table, runs the application to completion, injects failures, respawns
// failed ranks on behalf of the recovery coordinator, and aggregates the
// paper's statistics.
package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"samft/internal/ckptstore"
	"samft/internal/ft"
	"samft/internal/netsim"
	"samft/internal/pvm"
	"samft/internal/sam"
	"samft/internal/stats"
	"samft/internal/trace"
)

// KillEvent schedules one failure injection within a run.
type KillEvent struct {
	// Rank is the victim's logical rank.
	Rank int
	// Step, when > 0, fires the kill when the victim's application
	// reaches that step.
	Step int64
	// AtModeledSec, when > 0, fires the kill once the cluster's modeled
	// clock passes that instant. Checked at application step boundaries,
	// so the kill lands at the first step at-or-after the threshold. A
	// threshold past the end of the run is a no-op.
	AtModeledSec float64
	// OnRecovery, instead, fires the kill the moment rank RecoveryOf's
	// replacement process is spawned — a failure injected mid-recovery.
	// Rank == RecoveryOf re-kills the recovering process itself before it
	// can finish restoring.
	OnRecovery bool
	RecoveryOf int
	// RecoveryCount, when > 0, narrows an OnRecovery trigger to RecoveryOf's
	// k-th respawn (1 = first). Zero fires on the first respawn observed.
	// Distinct counts let a schedule kill successive replacements of the
	// same rank deterministically (a flapping workstation).
	RecoveryCount int
}

// String renders the event the way schedules are reported ("kill 2 at
// step 2", "kill 3 during recovery of 2").
func (k KillEvent) String() string {
	switch {
	case k.OnRecovery && k.RecoveryCount > 0:
		return fmt.Sprintf("kill %d during recovery #%d of %d", k.Rank, k.RecoveryCount, k.RecoveryOf)
	case k.OnRecovery:
		return fmt.Sprintf("kill %d during recovery of %d", k.Rank, k.RecoveryOf)
	case k.AtModeledSec > 0:
		return fmt.Sprintf("kill %d at modeled %.4fs", k.Rank, k.AtModeledSec)
	default:
		return fmt.Sprintf("kill %d at step %d", k.Rank, k.Step)
	}
}

// Config describes one cluster run.
type Config struct {
	// N is the number of workstations (one SAM process each).
	N int
	// Policy selects the fault-tolerance mode.
	Policy ft.Policy
	// Degree is the replication degree n of §4.2; 0 means 1 (a scenario
	// file that omits it asks for 2).
	Degree int
	// Placement selects the checkpoint-copy placement policy (ring, the
	// default, or spread); see internal/ckptstore.
	Placement ckptstore.Kind
	// EagerFree disables the §4.3 lazy-free protocol (ablation).
	EagerFree bool
	// HostSlowdown, when non-nil, scales rank r's modeled compute costs by
	// HostSlowdown[r] (> 1 = slower workstation, 0 or 1 = nominal speed;
	// see Endpoint.SetSlowdown). A replacement process respawned after a
	// failure lands on the same modeled host and inherits the factor.
	// Ranks beyond the slice run at nominal speed.
	HostSlowdown []float64
	// NoSnapCache disables the version-keyed snapshot cache (ablation).
	NoSnapCache bool
	// AppFactory builds the per-rank application. It is called again with
	// the same rank when a failed process is restarted.
	AppFactory func(rank int) sam.App
	// Kills is the failure-injection schedule (empty = fault-free run). The
	// cluster interprets it: step and modeled-time triggers are checked as
	// each application step begins, on-recovery triggers as a replacement
	// is spawned. Each event fires at most once.
	Kills []KillEvent
	// FaultPlan is the simulated network's seeded chaos (jitter,
	// notification drop/duplication); the zero plan injects none.
	netsim.FaultPlan
	// Tracer, when non-nil, records every layer's events into one
	// virtual-time track per process incarnation (see internal/trace).
	Tracer *trace.Tracer
}

// Cluster is a running (or runnable) simulated cluster.
type Cluster struct {
	cfg     Config
	machine *pvm.Machine

	// mu sits at the top of the module's lock hierarchy: respawn holds it
	// across spawning (so the new task body observes its own fresh tid),
	// and the kill and error paths touch endpoint and task state under it.
	// Nothing in the lower layers calls back into the cluster while holding
	// its own lock, so the order is acyclic. Taken under mu, by layer:
	//   - pvm: Machine.mu (Spawn) and Task.mu (error collection);
	//   - netsim: Network.mu (endpoint registration during spawn) and
	//     Endpoint.mu (Kill and SetSlowdown on the rank's endpoint);
	//   - trace: Tracer.mu and Recorder.mu (track creation and incarnation
	//     labels during spawn).
	mu       sync.Mutex
	tids     []pvm.TID
	tasks    []*pvm.Task
	allTasks []*pvm.Task // every incarnation, for error collection and endpoint counters
	procs    []*sam.Proc // current incarnation's process per rank
	stats    []*stats.Proc
	finished []bool
	appDone  []bool // rank's application has completed (any incarnation)
	halted   bool

	killFired    []atomic.Bool // per cfg.Kills event: already fired
	killsApplied atomic.Int64

	started  chan struct{}
	finishCh chan int
}

// New prepares a cluster; Start boots it.
func New(cfg Config) *Cluster {
	if cfg.N <= 0 {
		panic("cluster: N must be positive")
	}
	if cfg.AppFactory == nil {
		panic("cluster: AppFactory required")
	}
	c := &Cluster{
		cfg:      cfg,
		machine:  pvm.NewMachine(netsim.Config{Chaos: cfg.FaultPlan, Trace: cfg.Tracer}),
		tids:     make([]pvm.TID, cfg.N),
		tasks:    make([]*pvm.Task, cfg.N),
		procs:    make([]*sam.Proc, cfg.N),
		stats:    make([]*stats.Proc, cfg.N),
		finished: make([]bool, cfg.N),
		appDone:  make([]bool, cfg.N),
		started:  make(chan struct{}),
		finishCh: make(chan int, cfg.N*4),

		killFired: make([]atomic.Bool, len(cfg.Kills)),
	}
	for i := range c.stats {
		c.stats[i] = &stats.Proc{}
	}
	return c
}

// Start spawns every rank. The processes begin executing immediately.
func (c *Cluster) Start() {
	for rank := 0; rank < c.cfg.N; rank++ {
		task := c.spawn(rank, false, 0)
		c.tids[rank] = task.TID()
		c.tasks[rank] = task
		c.allTasks = append(c.allTasks, task)
	}
	close(c.started)
}

// spawn launches one rank's process body (initial or recovering) with its
// modeled clock at atUS.
func (c *Cluster) spawn(rank int, recovering bool, atUS float64) *pvm.Task {
	name := fmt.Sprintf("rank%d", rank)
	if recovering {
		name += "-r"
	}
	var slowdown float64
	if rank < len(c.cfg.HostSlowdown) {
		slowdown = c.cfg.HostSlowdown[rank]
	}
	task := c.machine.SpawnAt(name, atUS, func(t *pvm.Task) {
		<-c.started
		c.mu.Lock()
		ranks := append([]pvm.TID(nil), c.tids...)
		st := c.stats[rank]
		c.mu.Unlock()
		cfg := sam.Config{
			Rank:        rank,
			Ranks:       ranks,
			Policy:      c.cfg.Policy,
			Degree:      c.cfg.Degree,
			Placement:   c.cfg.Placement,
			EagerFree:   c.cfg.EagerFree,
			NoSnapCache: c.cfg.NoSnapCache,
			Stats:       st,
			Recovering:  recovering,
			Respawn:     c.respawn,
		}
		p := sam.NewProc(t, cfg)
		c.mu.Lock()
		if c.tids[rank] == t.TID() {
			c.procs[rank] = p // current incarnation (a racing respawn wins)
		}
		c.mu.Unlock()
		app := c.cfg.AppFactory(rank)
		if len(c.cfg.Kills) > 0 {
			app = &scheduled{App: app, c: c, rank: rank}
		}
		if p.Run(app) {
			c.mu.Lock()
			c.appDone[rank] = true
			c.mu.Unlock()
			if ctl := c.cfg.Tracer.Control(); ctl != nil {
				ctl.Emit(trace.Event{
					Kind: trace.ClusterFinished, Rank: rank,
					VirtUS: t.ClockUS(), Src: int64(t.TID()),
				})
			}
			c.finishCh <- rank
		}
	})
	if slowdown > 0 {
		task.Endpoint().SetSlowdown(slowdown)
	}
	if c.cfg.Tracer != nil {
		c.cfg.Tracer.Label(int64(task.TID()), name, rank)
	}
	return task
}

// respawn restarts a failed rank on behalf of the recovery coordinator, at
// the coordinator's modeled instant atUS, and returns the replacement's tid
// (NoTID while halting). It is idempotent per failed incarnation: with
// overlapping failures, several processes may briefly believe they
// coordinate the same recovery, and only the first restart request for a
// given dead tid spawns a process — later ones are answered with the
// already-running replacement's tid.
func (c *Cluster) respawn(rank int, dead pvm.TID, atUS float64) pvm.TID {
	// The lock is held across the spawn so the new task body (which also
	// takes it to snapshot the rank table) observes its own fresh tid.
	c.mu.Lock()
	if c.halted {
		c.mu.Unlock()
		return pvm.NoTID
	}
	if c.tids[rank] != dead {
		tid := c.tids[rank]
		c.mu.Unlock()
		return tid // already restarted by a competing coordinator
	}
	task := c.spawn(rank, true, atUS)
	c.tids[rank] = task.TID()
	c.tasks[rank] = task
	c.procs[rank] = nil // until the replacement's body registers its own
	c.allTasks = append(c.allTasks, task)
	nth := int(c.stats[rank].Recoveries.Add(1)) // this rank's k-th respawn
	tid := task.TID()
	c.mu.Unlock()
	// The schedule's on-recovery triggers, outside the lock (Kill takes it).
	c.fire(func(ev KillEvent) bool {
		return ev.OnRecovery && ev.RecoveryOf == rank && (ev.RecoveryCount == 0 || ev.RecoveryCount == nth)
	})
	return tid
}

// scheduled wraps a rank's application when the run has a kill schedule:
// the step and modeled-time triggers are checked as each step begins, on
// the application's own goroutine.
type scheduled struct {
	sam.App
	c    *Cluster
	rank int
}

func (s *scheduled) Step(p *sam.Proc, step int64) bool {
	s.c.fire(func(ev KillEvent) bool {
		return !ev.OnRecovery && ((ev.Step > 0 && s.rank == ev.Rank && step >= ev.Step) ||
			(ev.AtModeledSec > 0 && s.c.ElapsedModeledSec() >= ev.AtModeledSec))
	})
	return s.App.Step(p, step)
}

// fire executes the schedule's events that are due, each at most once.
func (c *Cluster) fire(due func(KillEvent) bool) {
	for i, ev := range c.cfg.Kills {
		if due(ev) && c.killFired[i].CompareAndSwap(false, true) && c.Kill(ev.Rank) {
			c.killsApplied.Add(1)
		}
	}
}

// KillsApplied counts the schedule's events that took down a live process
// (an event can be a no-op, e.g. an on-recovery trigger whose subject never
// failed).
func (c *Cluster) KillsApplied() int { return int(c.killsApplied.Load()) }

// Kill injects the failure of a rank's current incarnation, as if its
// workstation rebooted. It is a documented safe no-op — returning false —
// on an out-of-range rank, a rank whose application has already finished,
// a never-started or already-dead incarnation, and a halted cluster; it
// returns true only when a live process was actually killed, which is what
// KillsApplied counts for the schedule's own events.
func (c *Cluster) Kill(rank int) bool {
	c.mu.Lock()
	if rank < 0 || rank >= c.cfg.N || c.halted || c.appDone[rank] {
		c.mu.Unlock()
		return false
	}
	tid := c.tids[rank]
	c.mu.Unlock()
	if tid == pvm.NoTID {
		return false
	}
	// Read the victim's clock before the kill: Lookup refuses dead
	// endpoints afterwards.
	var clockUS float64
	if ep := c.machine.Network().Lookup(tid); ep != nil {
		clockUS = ep.ClockUS()
	}
	killed := c.machine.Kill(tid)
	if killed {
		if ctl := c.cfg.Tracer.Control(); ctl != nil {
			ctl.Emit(trace.Event{
				Kind: trace.ClusterKill, Rank: rank, VirtUS: clockUS,
				Aux: int64(tid),
			})
		}
	}
	return killed
}

// WaitFinished blocks until every rank's application has completed
// (surviving kills via recovery) without halting the machine, so callers
// can still inspect or quiesce the cluster. Returns an error on timeout.
func (c *Cluster) WaitFinished(timeout time.Duration) error {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	probe := time.NewTicker(50 * time.Millisecond)
	defer probe.Stop()
	remaining := c.cfg.N
	for remaining > 0 {
		select {
		case rank := <-c.finishCh:
			c.mu.Lock()
			if !c.finished[rank] {
				c.finished[rank] = true
				remaining--
			}
			c.mu.Unlock()
		case <-probe.C:
			// Fail fast on an application error: a rank that died on a
			// real panic (injected kills end without error) never
			// finishes, and waiting out the full timeout hides the cause.
			if err := c.Err(); err != nil {
				return fmt.Errorf("cluster: application failed: %w", err)
			}
		case <-deadline.C:
			return fmt.Errorf("cluster: timeout with %d ranks unfinished", remaining)
		}
	}
	return nil
}

// Wait blocks until every rank's application has completed, then halts
// the machine. It returns the first task error observed, if any.
func (c *Cluster) Wait(timeout time.Duration) error {
	err := c.WaitFinished(timeout)
	c.Halt()
	if err != nil {
		return err
	}
	return c.Err()
}

// Quiesce waits for the cluster's protocol traffic to drain and reports
// whether it did within the timeout. Meaningful after WaitFinished
// (applications done, runtimes still serving), when only message handlers
// send. It decides by counting: every frame delivered into a current
// incarnation's mailbox (netsim Endpoint.Enqueued) against every frame
// whose handler has returned (sam Proc.ProcessedCount). All the handled
// counts are read first, then all the enqueued counts; both only grow and
// handled never exceeds enqueued per process, so equal sums mean that at
// the instant between the two passes every delivered frame had been
// handled — no handler was running, and a send enqueues synchronously, so
// there was nothing left to cause another frame.
func (c *Cluster) Quiesce(timeout time.Duration) bool {
	// Timer/ticker rather than time.Now polling: the deadline and poll
	// cadence are host-side timeouts and never leak into simulation state.
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	poll := time.NewTicker(time.Millisecond)
	defer poll.Stop()
	for !c.drained() {
		select {
		case <-deadline.C:
			return false
		case <-poll.C:
		}
	}
	return true
}

// drained is Quiesce's instantaneous test.
func (c *Cluster) drained() bool {
	c.mu.Lock()
	procs := append([]*sam.Proc(nil), c.procs...)
	tasks := append([]*pvm.Task(nil), c.tasks...)
	c.mu.Unlock()
	var handled, enqueued int64
	for _, p := range procs {
		if p == nil {
			return false // a (replacement) process has not registered yet
		}
		handled += p.ProcessedCount()
	}
	for _, t := range tasks {
		enqueued += t.Endpoint().Enqueued()
	}
	return handled == enqueued
}

// LiveInvariantSnapshots collects a state summary from each rank's
// current incarnation through its command queue, without halting the
// machine. Ranks whose process is dead (killed, mid-respawn) or not yet
// registered are skipped — callers asserting cluster-wide properties
// should require len(snaps) == N. experiments.Run takes these after
// Quiesce for the end-state checks; the chaos harness also takes them
// after each recovery round.
func (c *Cluster) LiveInvariantSnapshots() []sam.InvariantSnapshot {
	c.mu.Lock()
	procs := append([]*sam.Proc(nil), c.procs...)
	c.mu.Unlock()
	snaps := make([]sam.InvariantSnapshot, 0, len(procs))
	for _, p := range procs {
		if p == nil {
			continue
		}
		if s, ok := p.LiveInvariants(); ok {
			snaps = append(snaps, s)
		}
	}
	return snaps
}

// Halt force-stops the cluster.
func (c *Cluster) Halt() {
	c.mu.Lock()
	c.halted = true
	c.mu.Unlock()
	c.machine.Halt()
}

// Err returns the first error any incarnation's task body reported.
func (c *Cluster) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, t := range c.allTasks {
		select {
		case <-t.Done():
			if err := t.Err(); err != nil {
				return err
			}
		default:
			// Still serving (apps finished, runtime alive): no error.
		}
	}
	return nil
}

// Run executes the whole lifecycle: Start, Wait, report.
func (c *Cluster) Run(timeout time.Duration) (stats.Report, error) {
	c.Start()
	err := c.Wait(timeout)
	return c.Report(), err
}

// Report aggregates the paper-style statistics across ranks.
func (c *Cluster) Report() stats.Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := stats.Report{Procs: c.cfg.N, Elapsed: c.elapsedLocked()}
	for _, s := range c.stats {
		r.Total.Add(s.Snapshot())
	}
	// The receive waits are counted by the network endpoints, one per
	// incarnation; a dead incarnation's endpoint keeps its totals.
	for _, t := range c.allTasks {
		es := t.Endpoint().Stats()
		r.RecvIdleUS += es.RecvIdleUS
		r.RecvQueuedUS += es.RecvQueuedUS
	}
	return r
}

// ElapsedModeledSec returns the modeled wall time of the computation: the
// maximum virtual clock over the current incarnations.
func (c *Cluster) ElapsedModeledSec() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.elapsedLocked()
}

// elapsedLocked is ElapsedModeledSec for a caller that holds c.mu.
func (c *Cluster) elapsedLocked() float64 {
	var maxUS float64
	for _, t := range c.tasks {
		if t == nil {
			continue
		}
		if us := t.Endpoint().ClockUS(); us > maxUS {
			maxUS = us
		}
	}
	return maxUS / 1e6
}

// ProcStats returns a rank's counters (shared across incarnations).
func (c *Cluster) ProcStats(rank int) *stats.Proc {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats[rank]
}
