package gps

import (
	"slices"
	"sort"

	"samft/internal/codec"
	"samft/internal/sam"
	"samft/internal/xrand"
)

// Params configures a GPS run. The paper's headline experiment evolves a
// population of 1000 individuals.
type Params struct {
	Population  int    // total individuals across all processes
	Generations int64  // evolution length
	TopK        int    // migrants published per process per generation
	Samples     int    // dataset size
	MaxDepth    int    // tree depth bound
	Seed        uint64 // master seed (dataset + per-(rank,gen) streams)
	// EvalCostUS is the modeled compute cost charged per node evaluation
	// per sample, reproducing the paper's "much computation per
	// individual" coarse grain.
	EvalCostUS float64
}

// DefaultParams returns the paper-scale configuration.
func DefaultParams() Params {
	return Params{
		Population:  1000,
		Generations: 10,
		TopK:        4,
		Samples:     64,
		MaxDepth:    7,
		Seed:        1996,
		EvalCostUS:  0.05,
	}
}

// State is the application's checkpointed private state: the local shard.
type State struct {
	Pop []Individual
}

func init() { codec.Register("gps.State", State{}) }

// Names used in SAM's global name space.
const (
	famShard = 20 // value: per-(gen,rank) migrant shard
	famBest  = 21 // accumulator: global best
	famFinal = 22 // value: per-rank final result
)

func shardName(gen int64, rank int) sam.Name { return sam.MkName(famShard, int(gen), rank) }
func bestName() sam.Name                     { return sam.MkName(famBest, 0, 0) }
func finalName(rank int) sam.Name            { return sam.MkName(famFinal, rank, 0) }

// App is the per-process GPS application. Construct with New.
type App struct {
	rank, n int
	p       Params
	data    *Dataset
	st      State
	// Breeding buffers, reused every generation: the migrants read from
	// the other processes, the pool the tournaments draw from (the shard
	// followed by the migrants), and the population of the generation
	// before st.Pop, which the next one is bred into. Programs are
	// immutable, and what the application publishes (topK, champion) is
	// copied out, so nothing outside the application aliases these slices.
	// A migrant's program lives in the storage of the shard it was read
	// from, which SAM reuses once the step has ended (sam.Proc.UseValue):
	// what outlives the step — a bred shard, the global best — holds a
	// clone of it, never the program itself.
	migrants, pool, spare []Individual
	// OnResult, when set on rank 0's instance, receives the final global
	// best fitness (used by experiments; may be called again on replay).
	OnResult func(best float64)
}

// New builds the application for one rank.
func New(rank, n int, p Params) *App {
	return &App{rank: rank, n: n, p: p, data: NewDataset(p.Seed, p.Samples, p.MaxDepth)}
}

// Init seeds the local shard and (on rank 0) the global-best accumulator.
func (a *App) Init(p *sam.Proc) {
	shard := a.p.Population / a.n
	if a.rank < a.p.Population%a.n {
		shard++
	}
	r := xrand.At(a.p.Seed, int64(a.rank), -1)
	a.st.Pop = make([]Individual, shard)
	for i := range a.st.Pop {
		t := RandomTree(r, NVars, a.p.MaxDepth)
		a.st.Pop[i] = Individual{Tree: t, Fitness: a.data.Fitness(t)}
	}
	if a.rank == 0 {
		p.CreateAccum(bestName(), &Best{Fitness: 1e18})
	}
}

// Step runs one generation. Step g:
//  1. publish this process's top-K of generation g-1,
//  2. read every other process's top-K (cache-served after the first use),
//  3. breed and evaluate the next shard.
//
// After the last generation, one extra step per process publishes its
// final champion; rank 0 then reduces them through the accumulator.
func (a *App) Step(p *sam.Proc, step int64) bool {
	switch {
	case step <= a.p.Generations:
		a.generation(p, step)
		return true
	case step == a.p.Generations+1:
		// Publish the local champion (consumed once, by rank 0).
		best := a.champion()
		p.CreateValue(finalName(a.rank), &Shard{Rank: int64(a.rank), Tops: []Individual{best}}, 1)
		return true
	case step == a.p.Generations+2 && a.rank == 0:
		// Collect every champion first, then take the accumulator: holding
		// the lock while waiting on values from processes that still need
		// the lock would deadlock.
		var champ Individual
		found := false
		for r := 0; r < a.n; r++ {
			s := p.UseValue(finalName(r)).(*Shard)
			if len(s.Tops) > 0 && (!found || s.Tops[0].Fitness < champ.Fitness) {
				found = true
				champ = s.Tops[0]
				champ.Tree = champ.Tree.Clone() // the accumulator outlives the step
			}
			p.DoneValue(finalName(r))
		}
		b := p.UpdateAccum(bestName()).(*Best)
		if found && (!b.Found || champ.Fitness < b.Fitness) {
			b.Found = true
			b.Fitness = champ.Fitness
			b.Tree = champ.Tree
		}
		final := b.Fitness
		p.ReleaseAccum(bestName())
		if a.OnResult != nil {
			a.OnResult(final)
		}
		return true
	default:
		return false
	}
}

func (a *App) champion() Individual {
	best := a.st.Pop[0]
	for _, ind := range a.st.Pop[1:] {
		if ind.Fitness < best.Fitness {
			best = ind
		}
	}
	return best
}

// generation performs one round of migrate-select-breed-evaluate.
func (a *App) generation(p *sam.Proc, gen int64) {
	// 1. Publish migrants: our current top-K. Every other process reads
	// the value exactly once.
	tops := a.topK(a.p.TopK)
	p.CreateValue(shardName(gen, a.rank), &Shard{Rank: int64(a.rank), Gen: gen, Tops: tops}, int64(a.n-1))
	for r := 0; r < a.n; r++ {
		if r != a.rank {
			p.Push(shardName(gen, a.rank), r) // overlap migrant delivery with breeding
		}
	}

	// 2. Collect migrants from everyone else.
	a.migrants = a.migrants[:0]
	for r := 0; r < a.n; r++ {
		if r == a.rank {
			continue
		}
		s := p.UseValue(shardName(gen, r)).(*Shard)
		a.migrants = append(a.migrants, s.Tops...)
		p.DoneValue(shardName(gen, r))
	}

	// 3. Breed the next shard; deterministic given (seed, rank, gen) so a
	// recovery replay reproduces it exactly.
	p.Compute(a.breed(xrand.At(a.p.Seed, int64(a.rank), gen)))

	// 4. Occasionally refresh the monitoring accumulator (a chaotic-read
	// consumer could watch progress); this is the only nonreproducible
	// data GPS produces.
	if gen == a.p.Generations {
		b := p.UpdateAccum(bestName()).(*Best)
		if c := a.champion(); !b.Found || c.Fitness < b.Fitness {
			b.Found = true
			b.Fitness = c.Fitness
			b.Tree = c.Tree
		}
		p.ReleaseAccum(bestName())
	}
}

// breed replaces the shard with the next generation, bred from the shard
// and the migrants with tournament selection, crossover and mutation, and
// returns the modeled cost of scoring it. A child that is a parent whole
// keeps the parent's fitness instead of being scored again; the modeled
// cost charges every child all the same. The new shard goes into the
// buffer of the generation before the current one, so once both buffers
// and the pool have grown, breeding allocates only the children that
// Crossover and Mutate make.
func (a *App) breed(r *xrand.Rand) float64 {
	a.pool = append(append(a.pool[:0], a.st.Pop...), a.migrants...)
	next := slices.Grow(a.spare[:0], len(a.st.Pop))
	evalCost := 0.0
	for range a.st.Pop {
		child, whole := a.offspring(r)
		if !whole {
			child.Fitness = a.data.Fitness(child.Tree)
		}
		next = append(next, child)
		evalCost += float64(len(child.Tree)*len(a.data.X)) * a.p.EvalCostUS
	}
	a.st.Pop, a.spare = next, a.st.Pop
	return evalCost
}

// offspring breeds one child from the pool. A child that is its first
// parent whole — reproduction, or a crossover or mutation that was
// rejected — is that parent, fitness included, and whole is true. It shares
// the parent's program, which is immutable, unless the parent is a
// migrant: that program lives in storage the step does not own, so the
// child clones it. The fitness still holds: the sender scored the program
// on the same dataset. Any other child comes back unscored.
func (a *App) offspring(r *xrand.Rand) (child Individual, whole bool) {
	var t Program
	switch r.Intn(10) {
	case 0: // mutation
		child = a.tournament(r, a.pool)
		t = Mutate(r, child.Tree, NVars, a.p.MaxDepth)
	case 1: // reproduction
		child = a.tournament(r, a.pool)
		t = child.Tree
	default: // crossover
		child = a.tournament(r, a.pool)
		t = Crossover(r, child.Tree, a.tournament(r, a.pool).Tree, a.p.MaxDepth)
	}
	if !shares(t, child.Tree) {
		return Individual{Tree: t}, false
	}
	if a.isMigrant(t) {
		child.Tree = t.Clone()
	}
	return child, true
}

// shares reports whether p and q are one program: the same backing array
// and length, not merely equal nodes.
func shares(p, q Program) bool {
	return len(p) > 0 && len(p) == len(q) && &p[0] == &q[0]
}

// isMigrant reports whether t is a migrant's program itself, not a copy.
func (a *App) isMigrant(t Program) bool {
	for _, m := range a.migrants {
		if shares(m.Tree, t) {
			return true
		}
	}
	return false
}

func (a *App) topK(k int) []Individual {
	idx := make([]int, len(a.st.Pop))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return a.st.Pop[idx[i]].Fitness < a.st.Pop[idx[j]].Fitness })
	if k > len(idx) {
		k = len(idx)
	}
	out := make([]Individual, k)
	for i := 0; i < k; i++ {
		out[i] = a.st.Pop[idx[i]]
	}
	return out
}

// tournament picks the best of 3 random individuals.
func (a *App) tournament(r *xrand.Rand, pool []Individual) Individual {
	best := pool[r.Intn(len(pool))]
	for i := 0; i < 2; i++ {
		c := pool[r.Intn(len(pool))]
		if c.Fitness < best.Fitness {
			best = c
		}
	}
	return best
}

// Snapshot and Restore implement sam.App's private-state capture.
func (a *App) Snapshot() interface{} { return &a.st }

// Restore rebuilds the application from a checkpointed shard.
func (a *App) Restore(s interface{}) { a.st = *(s.(*State)) }
