package barnes

import (
	"math"

	"samft/internal/sam"
	"samft/internal/xrand"
)

// Params configures a Barnes-Hut run; the paper simulates 8000 bodies.
type Params struct {
	Bodies int
	Steps  int64
	Theta  float64
	Dt     float64
	Size   float64 // universe cube side
	Seed   uint64
	// BodyCostUS is the modeled compute charge per body-cell interaction.
	BodyCostUS float64
}

// DefaultParams returns the paper-scale configuration.
func DefaultParams() Params {
	return Params{
		Bodies:     8000,
		Steps:      4,
		Theta:      0.6,
		Dt:         0.01,
		Size:       16,
		Seed:       8000,
		BodyCostUS: 0.01,
	}
}

// Names.
const (
	famPart = 35 // value: per-(step,rank) body partition
	famMom  = 36 // accumulator: per-octant shared mass moments
)

func partName(step int64, rank int) sam.Name { return sam.MkName(famPart, int(step), rank) }
func momName(oct int) sam.Name               { return sam.MkName(famMom, oct, 0) }

// App is the per-process Barnes-Hut application.
type App struct {
	rank, n int
	p       Params
	st      State
	all     []Body // every partition of the previous step, gathered
	tree    Tree
	// OnStep, when set on rank 0, receives each step the total mass of the
	// tree and the Digest of the gathered bodies (validation hook).
	OnStep func(step int64, mass, digest float64)
}

// New builds the application for one rank.
func New(rank, n int, p Params) *App {
	return &App{rank: rank, n: n, p: p, all: make([]Body, 0, p.Bodies)}
}

// plummerish samples a centrally condensed cluster, deterministic in seed.
func plummerish(p Params, lo, hi int) []Body {
	r := xrand.At(p.Seed, int64(lo), int64(hi))
	out := make([]Body, hi-lo)
	for i := range out {
		// Radius biased toward the center, wrapped into the cube.
		rad := 0.5 * p.Size * math.Pow(r.Float64(), 1.5) / 2
		theta := math.Acos(2*r.Float64() - 1)
		phi := 2 * math.Pi * r.Float64()
		c := p.Size / 2
		out[i] = Body{
			Pos: [3]float64{
				clampTo(c+rad*math.Sin(theta)*math.Cos(phi), p.Size),
				clampTo(c+rad*math.Sin(theta)*math.Sin(phi), p.Size),
				clampTo(c+rad*math.Cos(theta), p.Size),
			},
			Vel:  [3]float64{r.NormFloat64() * 0.01, r.NormFloat64() * 0.01, r.NormFloat64() * 0.01},
			Mass: 1.0 / float64(p.Bodies),
		}
	}
	return out
}

func clampTo(x, size float64) float64 {
	if x < 0 {
		return 0
	}
	if x >= size {
		return math.Nextafter(size, 0)
	}
	return x
}

// slice returns this rank's body index range.
func (a *App) slice() (lo, hi int) {
	per := a.p.Bodies / a.n
	lo = a.rank * per
	hi = lo + per
	if a.rank == a.n-1 {
		hi = a.p.Bodies
	}
	return
}

// Init publishes each rank's initial partition; rank 0 creates the shared
// octant-moment accumulators.
func (a *App) Init(p *sam.Proc) {
	if a.rank == 0 {
		for oct := 0; oct < 8; oct++ {
			p.CreateAccum(momName(oct), &Moments{})
		}
	}
	lo, hi := a.slice()
	p.CreateValue(partName(0, a.rank), &Partition{
		Rank: int64(a.rank), Step: 0, Lo: int64(lo), Hi: int64(hi),
		Bodies: plummerish(a.p, lo, hi),
	}, int64(a.n))
	for r := 0; r < a.n; r++ {
		if r != a.rank {
			p.Push(partName(0, a.rank), r)
		}
	}
}

// Step performs one iteration:
//  1. cooperative build: fold this partition's octant moments into the 8
//     shared accumulators (fine-grain nonreproducible communication);
//  2. gather every partition value and assemble the tree locally (served
//     by SAM's cache after the first fetch of each partition);
//  3. Barnes-Hut force evaluation and leapfrog integration for the local
//     partition, published as the next step's value.
func (a *App) Step(p *sam.Proc, step int64) bool {
	if step > a.p.Steps {
		return false
	}

	// Gather all partitions of the previous step.
	all := a.all[:0]
	for r := 0; r < a.n; r++ {
		part := p.UseValue(partName(step-1, r)).(*Partition)
		all = append(all, part.Bodies...)
	}
	a.all = all

	// Cooperative top-of-tree: every process folds its octant moments into
	// the shared accumulators. Each update migrates the accumulator here —
	// the fine-grain nonreproducible traffic that drives this
	// application's fault-tolerance overhead in the paper.
	lo, hi := a.slice()
	half := a.p.Size / 2
	var local [8]Moments
	for i := lo; i < hi; i++ {
		b := all[i]
		oct := 0
		for d := 0; d < 3; d++ {
			if b.Pos[d] >= half {
				oct |= 1 << d
			}
		}
		local[oct].Count++
		local[oct].Mass += b.Mass
		for d := 0; d < 3; d++ {
			local[oct].Sum[d] += b.Pos[d] * b.Mass
		}
	}
	for oct := 0; oct < 8; oct++ {
		m := p.UpdateAccum(momName(oct)).(*Moments)
		m.Count += local[oct].Count
		m.Mass += local[oct].Mass
		for d := 0; d < 3; d++ {
			m.Sum[d] += local[oct].Sum[d]
		}
		p.ReleaseAccum(momName(oct))
	}

	// Local tree assembly + force computation for our partition.
	tree := &a.tree
	tree.Build(all, a.p.Size)
	if a.rank == 0 && a.OnStep != nil {
		a.OnStep(step, tree.Mass(), Digest(all))
	}
	// next is published by reference below, so it is never reused.
	next := make([]Body, hi-lo)
	interactions := 0
	for i := lo; i < hi; i++ {
		b := all[i]
		acc := tree.Accel(b.Pos, a.p.Theta, 1e-4)
		for d := 0; d < 3; d++ {
			b.Vel[d] += acc[d] * a.p.Dt
			b.Pos[d] = clampTo(b.Pos[d]+b.Vel[d]*a.p.Dt, a.p.Size)
		}
		next[i-lo] = b
		interactions += int(math.Log2(float64(a.p.Bodies))) + 1
	}
	p.Compute(float64(interactions) * a.p.BodyCostUS * 10)

	// Release our use of the previous partitions and publish the new one.
	for r := 0; r < a.n; r++ {
		p.DoneValue(partName(step-1, r))
	}
	p.CreateValue(partName(step, a.rank), &Partition{
		Rank: int64(a.rank), Step: step, Lo: int64(lo), Hi: int64(hi), Bodies: next,
	}, int64(a.n))
	for r := 0; r < a.n; r++ {
		if r != a.rank {
			p.Push(partName(step, a.rank), r)
		}
	}
	return true
}

// Digest hashes the positions and velocities of bodies, in order, with
// 64-bit FNV-1a over each float64's bits (least significant byte first)
// and returns the hash's top 53 bits as a float64: a step's answer that
// changes with any bit of the body state.
func Digest(bodies []Body) float64 {
	h := uint64(fnvOffset)
	for i := range bodies {
		b := &bodies[i]
		h = fnvAdd(h, b.Pos[0], b.Pos[1], b.Pos[2], b.Vel[0], b.Vel[1], b.Vel[2])
	}
	return float64(h >> 11)
}

const fnvOffset = 14695981039346656037

// fnvAdd folds the bits of vs into the 64-bit FNV-1a hash h.
func fnvAdd(h uint64, vs ...float64) uint64 {
	for _, v := range vs {
		u := math.Float64bits(v)
		for k := 0; k < 8; k++ {
			h ^= u & 0xff
			h *= 1099511628211
			u >>= 8
		}
	}
	return h
}

// Snapshot and Restore: bodies live in SAM values; no private state.
func (a *App) Snapshot() interface{} { return &a.st }
func (a *App) Restore(s interface{}) { a.st = *(s.(*State)) }
