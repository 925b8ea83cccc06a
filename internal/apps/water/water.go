// Package water reproduces the paper's Water application: a liquid-water
// molecular-dynamics simulation derived from the Perfect Club MDG
// benchmark, implemented on the Jade task layer (which is itself built on
// SAM). The headline run simulates 1728 molecules.
//
// The communication shape matches the paper's description: work is
// distributed through a Jade task queue (a non-reexecutable receive), and
// the main process collects all the data at each time step — so the main
// process's published system state is nonreproducible and large, making
// the main process the checkpointing bottleneck as the processor count
// grows, while the absolute overhead stays small.
package water

import (
	"math"

	"samft/internal/codec"
	"samft/internal/jade"
	"samft/internal/sam"
	"samft/internal/xrand"
)

// Vec is a 3-vector.
type Vec struct{ X, Y, Z float64 }

func (a Vec) add(b Vec) Vec       { return Vec{a.X + b.X, a.Y + b.Y, a.Z + b.Z} }
func (a Vec) sub(b Vec) Vec       { return Vec{a.X - b.X, a.Y - b.Y, a.Z - b.Z} }
func (a Vec) scale(s float64) Vec { return Vec{a.X * s, a.Y * s, a.Z * s} }
func (a Vec) norm2() float64      { return a.X*a.X + a.Y*a.Y + a.Z*a.Z }

// Frame is the full system state the main process publishes each step.
type Frame struct {
	Step int64
	Pos  []Vec
	Vel  []Vec
}

// Forces carries one task's partial force array for molecules [Lo, Hi).
type Forces struct {
	Task   int64
	Lo, Hi int64
	F      []Vec
	// PotE is the task's contribution to potential energy.
	PotE float64
}

type waterState struct {
	// Timestep is the simulation step currently being worked on.
	Timestep int64
}

func init() {
	codec.Register("water.Frame", Frame{})
	codec.Register("water.Forces", Forces{})
	codec.Register("water.state", waterState{})
}

// Params configures a run. Defaults follow the paper's 1728-molecule
// simulation (scaled counts are used by tests and benches).
type Params struct {
	Molecules    int
	Steps        int64
	TasksPerStep int
	Dt           float64
	BoxSize      float64
	Seed         uint64
	// PairCostUS is the modeled compute charge per molecule pair.
	PairCostUS float64
}

// DefaultParams returns the paper-scale configuration.
func DefaultParams() Params {
	return Params{
		Molecules:    1728,
		Steps:        6,
		TasksPerStep: 16,
		Dt:           0.004,
		BoxSize:      12.0,
		Seed:         1728,
		PairCostUS:   0.02,
	}
}

// Names.
const (
	famFrame  = 30
	famForces = 31
	famQueue  = 32
)

func frameName(step int64) sam.Name        { return sam.MkName(famFrame, int(step), 0) }
func forcesName(step, task int64) sam.Name { return sam.MkName(famForces, int(step), int(task)) }
func queueName(step int64) sam.Name        { return sam.MkName(famQueue, int(step), 0) }

// App is the per-process Water application.
type App struct {
	rank, n int
	p       Params
	st      waterState
	// OnEnergy, when set on rank 0, receives the total potential energy
	// of each completed step (used for cross-configuration validation).
	OnEnergy func(step int64, potE float64)
}

// New builds the application for one rank.
func New(rank, n int, p Params) *App {
	return &App{rank: rank, n: n, p: p}
}

// initialFrame builds the deterministic starting configuration: molecules
// on a perturbed cubic lattice with small thermal velocities.
func initialFrame(p Params) *Frame {
	r := xrand.New(p.Seed)
	side := int(math.Ceil(math.Cbrt(float64(p.Molecules))))
	spacing := p.BoxSize / float64(side)
	f := &Frame{Step: 0, Pos: make([]Vec, p.Molecules), Vel: make([]Vec, p.Molecules)}
	i := 0
	for x := 0; x < side && i < p.Molecules; x++ {
		for y := 0; y < side && i < p.Molecules; y++ {
			for z := 0; z < side && i < p.Molecules; z++ {
				f.Pos[i] = Vec{
					(float64(x) + 0.5 + 0.1*r.NormFloat64()) * spacing,
					(float64(y) + 0.5 + 0.1*r.NormFloat64()) * spacing,
					(float64(z) + 0.5 + 0.1*r.NormFloat64()) * spacing,
				}
				f.Vel[i] = Vec{r.NormFloat64() * 0.05, r.NormFloat64() * 0.05, r.NormFloat64() * 0.05}
				i++
			}
		}
	}
	return f
}

// Init: the main process publishes the initial frame and the first task
// queue.
func (a *App) Init(p *sam.Proc) {
	if a.rank != 0 {
		return
	}
	// Frames are read a dynamic number of times (one per task a process
	// happens to execute), so they are not access-counted; runs are short
	// relative to memory, matching the paper's simulations.
	p.CreateValue(frameName(0), initialFrame(a.p), sam.Unlimited)
	for r := 1; r < a.n; r++ {
		p.Push(frameName(0), r)
	}
	jade.NewQueue(queueName(1)).Create(p, a.makeTasks(1))
}

func (a *App) makeTasks(step int64) []jade.Task {
	tasks := make([]jade.Task, a.p.TasksPerStep)
	chunk := (a.p.Molecules + a.p.TasksPerStep - 1) / a.p.TasksPerStep
	for k := 0; k < a.p.TasksPerStep; k++ {
		lo := k * chunk
		hi := lo + chunk
		if hi > a.p.Molecules {
			hi = a.p.Molecules
		}
		tasks[k] = jade.Task{ID: int64(k), Kind: step, Args: []int64{int64(lo), int64(hi)}}
	}
	return tasks
}

// Step executes one *task* (one framework step per Jade task, so each
// non-reexecutable task receive sits at its own checkpointable boundary —
// the paper's "checkpoints naturally occur at task boundaries"). When the
// current time step's queue drains, the main process gathers every task's
// partial forces, integrates, and publishes the next frame and queue.
func (a *App) Step(p *sam.Proc, step int64) bool {
	if a.st.Timestep == 0 {
		a.st.Timestep = 1
	}
	ts := a.st.Timestep
	if ts > a.p.Steps {
		return false
	}
	prev := p.UseValue(frameName(ts - 1)).(*Frame)
	q := jade.NewQueue(queueName(ts))
	if t, ok := q.Pop(p); ok {
		lo, hi := t.Args[0], t.Args[1]
		fs := a.computeForces(prev, lo, hi)
		p.Compute(float64(hi-lo) * float64(a.p.Molecules) * a.p.PairCostUS)
		p.CreateValue(forcesName(ts, t.ID), fs, 1)
		p.DoneValue(frameName(ts - 1))
		return true
	}

	if a.rank != 0 {
		p.DoneValue(frameName(ts - 1))
		a.st.Timestep++
		return a.st.Timestep <= a.p.Steps
	}

	// Main process: collect all the data for this time step (the paper's
	// stated structure) and integrate.
	next := &Frame{Step: ts, Pos: make([]Vec, a.p.Molecules), Vel: make([]Vec, a.p.Molecules)}
	copy(next.Pos, prev.Pos)
	copy(next.Vel, prev.Vel)
	var potE float64
	for k := 0; k < a.p.TasksPerStep; k++ {
		fv := p.UseValue(forcesName(ts, int64(k))).(*Forces)
		for i := fv.Lo; i < fv.Hi; i++ {
			f := fv.F[i-fv.Lo]
			next.Vel[i] = next.Vel[i].add(f.scale(a.p.Dt))
		}
		potE += fv.PotE
		p.DoneValue(forcesName(ts, int64(k)))
	}
	for i := range next.Pos {
		next.Pos[i] = wrap(next.Pos[i].add(next.Vel[i].scale(a.p.Dt)), a.p.BoxSize)
	}
	p.DoneValue(frameName(ts - 1))
	p.CreateValue(frameName(ts), next, sam.Unlimited)
	for r := 1; r < a.n; r++ {
		p.Push(frameName(ts), r) // broadcast the new frame eagerly
	}
	if ts < a.p.Steps {
		jade.NewQueue(queueName(ts+1)).Create(p, a.makeTasks(ts+1))
	}
	if a.OnEnergy != nil {
		a.OnEnergy(ts, potE)
	}
	a.st.Timestep++
	return a.st.Timestep <= a.p.Steps
}

// wrap folds v into the periodic box [0, box)³. A molecule moves less than
// a box width per step, so one add or subtract wraps it. One that moved
// farther (a dataset whose molecules fly apart) is folded in one step, not
// one box width per iteration: NaN and ±Inf come back as NaN.
func wrap(v Vec, box float64) Vec {
	w := func(x float64) float64 {
		if x < 0 {
			x += box
		} else if x >= box {
			x -= box
		}
		if x < 0 || x >= box {
			x -= box * math.Floor(x/box)
			// Rounding can leave x just outside the box.
			if x < 0 {
				x += box
			}
			if x >= box {
				x -= box
			}
		}
		return x
	}
	return Vec{w(v.X), w(v.Y), w(v.Z)}
}

// computeForces evaluates a truncated Lennard-Jones interaction of the
// [lo,hi) molecules against the whole system with minimum-image periodic
// boundaries — the same O(n²) shape as the MDG inner loop.
func (a *App) computeForces(f *Frame, lo, hi int64) *Forces {
	out := &Forces{Lo: lo, Hi: hi, F: make([]Vec, hi-lo)}
	const (
		sigma2 = 0.25
		eps    = 1.0
		cutoff = 2.5
	)
	box := a.p.BoxSize
	for i := lo; i < hi; i++ {
		var acc Vec
		for j := 0; j < a.p.Molecules; j++ {
			if int64(j) == i {
				continue
			}
			d := f.Pos[i].sub(f.Pos[j])
			// Minimum image.
			if d.X > box/2 {
				d.X -= box
			} else if d.X < -box/2 {
				d.X += box
			}
			if d.Y > box/2 {
				d.Y -= box
			} else if d.Y < -box/2 {
				d.Y += box
			}
			if d.Z > box/2 {
				d.Z -= box
			} else if d.Z < -box/2 {
				d.Z += box
			}
			r2 := d.norm2()
			if r2 > cutoff*cutoff || r2 == 0 {
				continue
			}
			s2 := sigma2 / r2
			s6 := s2 * s2 * s2
			// LJ force magnitude / r.
			fm := 24 * eps * s6 * (2*s6 - 1) / r2
			acc = acc.add(d.scale(fm))
			out.PotE += 4 * eps * s6 * (s6 - 1) / 2 // half: pair counted twice
		}
		out.F[i-lo] = acc
	}
	return out
}

// Snapshot and Restore: Water keeps no private cross-step state — the
// whole system state lives in SAM values, exactly the paper's structure.
func (a *App) Snapshot() interface{} { return &a.st }
func (a *App) Restore(s interface{}) { a.st = *(s.(*waterState)) }
