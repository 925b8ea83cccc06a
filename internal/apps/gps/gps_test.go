package gps

import (
	"bytes"
	"math"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"samft/internal/codec"
	"samft/internal/xrand"
)

func TestRandomTreeBounds(t *testing.T) {
	r := xrand.New(7)
	for i := 0; i < 200; i++ {
		tr := RandomTree(r, NVars, 6)
		if tr.Depth() > 6 {
			t.Fatalf("tree depth %d > 6", tr.Depth())
		}
		if len(tr) < 1 {
			t.Fatal("empty tree")
		}
	}
}

func TestEvalKnownTrees(t *testing.T) {
	x := []float64{2, 3, 5, 7}
	add := Program{{Op: OpAdd}, {Op: OpVar, Index: 0}, {Op: OpVar, Index: 1}}
	if got := add.Eval(x); got != 5 {
		t.Fatalf("2+3 = %v", got)
	}
	div := Program{{Op: OpDiv}, {Op: OpConst, Value: 1}, {Op: OpConst, Value: 0}}
	if got := div.Eval(x); got != 1 {
		t.Fatalf("protected division = %v, want 1", got)
	}
	neg := Program{{Op: OpNeg}, {Op: OpVar, Index: 3}}
	if got := neg.Eval(x); got != -7 {
		t.Fatalf("-x3 = %v", got)
	}
	// Operands follow their operator in preorder, first operand first:
	// (x0 - x1) / -(x3) reads as one flat array.
	nested := Program{{Op: OpDiv}, {Op: OpSub}, {Op: OpVar, Index: 0}, {Op: OpVar, Index: 1}, {Op: OpNeg}, {Op: OpVar, Index: 3}}
	if got := nested.Eval(x); got != 1.0/7 {
		t.Fatalf("(x0-x1)/-x3 = %v, want %v", got, 1.0/7)
	}
}

func TestCloneIndependence(t *testing.T) {
	r := xrand.New(3)
	a := RandomTree(r, NVars, 5)
	b := a.Clone()
	if len(a) != len(b) {
		t.Fatal("clone size differs")
	}
	b[0] = Node{Op: OpConst, Value: 42}
	if a[0].Op == OpConst && a[0].Value == 42 {
		t.Fatal("clone aliases original")
	}
}

func TestCrossoverRespectsDepth(t *testing.T) {
	r := xrand.New(11)
	for i := 0; i < 200; i++ {
		a := RandomTree(r, NVars, 6)
		b := RandomTree(r, NVars, 6)
		c := Crossover(r, a, b, 6)
		if c.Depth() > 6 {
			t.Fatalf("crossover produced depth %d", c.Depth())
		}
	}
}

func TestMutateRespectsDepth(t *testing.T) {
	r := xrand.New(13)
	for i := 0; i < 200; i++ {
		a := RandomTree(r, NVars, 6)
		m := Mutate(r, a, NVars, 6)
		if m.Depth() > 6 {
			t.Fatalf("mutation produced depth %d", m.Depth())
		}
	}
}

func TestDatasetDeterministicAndBounded(t *testing.T) {
	a := NewDataset(5, 100, 7)
	b := NewDataset(5, 100, 7)
	for i := range a.Y {
		if a.Y[i] != b.Y[i] {
			t.Fatal("dataset not deterministic")
		}
		if a.Y[i] < 0 || a.Y[i] > 1 {
			t.Fatalf("exposure %v out of [0,1]", a.Y[i])
		}
	}
	c := NewDataset(6, 100, 7)
	same := true
	for i := range a.Y {
		if a.Y[i] != c.Y[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical datasets")
	}
}

func TestFitnessFinite(t *testing.T) {
	d := NewDataset(5, 64, 7)
	f := func(seed uint64) bool {
		tr := RandomTree(xrand.New(seed), NVars, 7)
		fit := d.Fitness(tr)
		return !math.IsNaN(fit) && !math.IsInf(fit, 0) && fit >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestTreeRoundTripsThroughCodec: a program survives pack and unpack
// exactly, so a migrant or a restored shard breeds and scores like the
// original: the copy re-packs to the same bytes and evaluates to the same
// bits on every dataset row.
func TestTreeRoundTripsThroughCodec(t *testing.T) {
	r := xrand.New(23)
	tr := RandomTree(r, NVars, 7)
	b, err := codec.Pack(tr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := codec.Unpack(b)
	if err != nil {
		t.Fatal(err)
	}
	back := *got.(*Program)
	again, err := codec.Pack(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, b) {
		t.Fatal("unpacked program re-packs to different bytes")
	}
	for i, x := range NewDataset(5, 64, 7).X {
		if math.Float64bits(tr.Eval(x)) != math.Float64bits(back.Eval(x)) {
			t.Fatalf("row %d: program changed across codec round trip", i)
		}
	}
}

func TestFitnessImprovesOverGenerations(t *testing.T) {
	// Pure-library sanity: a tiny GP loop should not get worse.
	d := NewDataset(5, 64, 7)
	r := xrand.New(29)
	pop := make([]Individual, 60)
	for i := range pop {
		tr := RandomTree(r, NVars, 6)
		pop[i] = Individual{Tree: tr, Fitness: d.Fitness(tr)}
	}
	best0 := best(pop)
	for g := 0; g < 8; g++ {
		next := make([]Individual, len(pop))
		for i := range next {
			a := tourn(r, pop)
			b := tourn(r, pop)
			tr := Crossover(r, a.Tree, b.Tree, 6)
			next[i] = Individual{Tree: tr, Fitness: d.Fitness(tr)}
		}
		// Elitism for the sanity check.
		next[0] = best(pop)
		pop = next
	}
	if best(pop).Fitness > best0.Fitness+1e-9 {
		t.Fatalf("fitness regressed: %v -> %v", best0.Fitness, best(pop).Fitness)
	}
}

func best(pop []Individual) Individual {
	b := pop[0]
	for _, p := range pop[1:] {
		if p.Fitness < b.Fitness {
			b = p
		}
	}
	return b
}

func tourn(r *xrand.Rand, pop []Individual) Individual {
	b := pop[r.Intn(len(pop))]
	for i := 0; i < 2; i++ {
		c := pop[r.Intn(len(pop))]
		if c.Fitness < b.Fitness {
			b = c
		}
	}
	return b
}

// TestHotPathsAllocate pins the allocation budget of the generation loop:
// scoring allocates nothing, not even the first call on a new dataset (its
// scratch is sized when it is made), and breeding allocates the child alone.
func TestHotPathsAllocate(t *testing.T) {
	d := NewDataset(5, 64, 7)
	r := xrand.New(31)
	a, b, deep := RandomTree(r, NVars, 7), RandomTree(r, NVars, 7), deepChain(7)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d.Fitness(deep)
	runtime.ReadMemStats(&after)
	if n := after.Mallocs - before.Mallocs; n != 0 {
		t.Errorf("first Fitness of a depth-7 program: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { d.Fitness(a) }); n != 0 {
		t.Errorf("Fitness: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { a.Eval(d.X[0]) }); n != 0 {
		t.Errorf("Eval: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { Crossover(r, a, b, 7) }); n > 1 {
		t.Errorf("Crossover: %v allocs, want at most 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { Mutate(r, a, NVars, 7) }); n > 1 {
		t.Errorf("Mutate: %v allocs, want at most 1", n)
	}
}

// breeder is rank 0's application at paper scale between two generations:
// its shard scored, and the 28 migrants seven other ranks would publish.
func breeder() (*App, []Individual) {
	d, pop := paperShard()
	a := &App{p: DefaultParams(), data: d}
	a.st.Pop = slices.Clone(pop)
	a.migrants = pop[:7*a.p.TopK]
	return a, pop
}

// TestBredShardHoldsNoMigrant: a bred shard outlives its step, and a
// migrant's program lives in the storage of a shard SAM reuses once the
// step has ended, so no individual of the next shard may share a migrant's
// program, whether it was reproduced whole or was the parent a rejected
// crossover or mutation returned.
func TestBredShardHoldsNoMigrant(t *testing.T) {
	a, pop := breeder()
	a.migrants = nil
	for _, ind := range pop[:7*a.p.TopK] {
		ind.Tree = ind.Tree.Clone() // decoded from a shard: storage of its own
		a.migrants = append(a.migrants, ind)
	}
	a.breed(xrand.New(5))
	shared, whole := 0, 0
	for _, ind := range a.st.Pop {
		if a.isMigrant(ind.Tree) {
			shared++
		}
		for _, m := range a.migrants {
			if slices.Equal(ind.Tree, m.Tree) {
				whole++
				break
			}
		}
	}
	if shared != 0 {
		t.Errorf("%d of %d bred individuals share a migrant's program", shared, len(a.st.Pop))
	}
	if whole == 0 {
		t.Error("no migrant was reproduced whole: the case is not exercised")
	}
}

// TestBreedAllocatesOnlyTheChildren: once the shard buffers and the pool
// have grown, a generation's breeding allocates exactly what its offspring
// calls do (TestHotPathsAllocate bounds those): the pool and the next shard
// are reused, not made again.
func TestBreedAllocatesOnlyTheChildren(t *testing.T) {
	a, pop := breeder()
	a.breed(xrand.New(1)) // grows the pool and the second shard buffer
	a.breed(xrand.New(2))
	bred := testing.AllocsPerRun(20, func() {
		copy(a.st.Pop, pop) // the same pool every run, so the same draws
		a.breed(xrand.New(3))
	})
	children := testing.AllocsPerRun(20, func() {
		r := xrand.New(3)
		for range a.st.Pop {
			a.offspring(r)
		}
	})
	if bred != children {
		t.Errorf("breeding made %v allocs per generation, its offspring %v: want the same", bred, children)
	}
}

// TestSnapshotSurvivesBreeding: a boundary snapshot of the shard still
// unpacks to the boundary's individuals after two more generations, the
// second of which is bred into the very buffer that held them, and the
// programs those individuals share with later generations are unchanged.
func TestSnapshotSurvivesBreeding(t *testing.T) {
	a, _ := breeder()
	a.breed(xrand.At(a.p.Seed, 0, 1))
	snap, err := codec.Pack(a.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	held := slices.Clone(a.st.Pop)
	buf := &a.st.Pop[0]
	a.breed(xrand.At(a.p.Seed, 0, 2))
	a.breed(xrand.At(a.p.Seed, 0, 3))
	if &a.st.Pop[0] != buf {
		t.Fatal("generation 3 was not bred into generation 1's buffer")
	}
	got, err := codec.Unpack(snap)
	if err != nil {
		t.Fatal(err)
	}
	again, err := codec.Pack(&State{Pop: held})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.EqualFunc(got.(*State).Pop, held, func(x, y Individual) bool {
		return slices.Equal(x.Tree, y.Tree) && math.Float64bits(x.Fitness) == math.Float64bits(y.Fitness)
	}) || !bytes.Equal(again, snap) {
		t.Fatal("the boundary snapshot changed after two more generations")
	}
}

// paperShard is one rank's population at paper scale (1000 individuals
// on 8 processes), scored against the paper-sized dataset.
func paperShard() (*Dataset, []Individual) {
	p := DefaultParams()
	d := NewDataset(p.Seed, p.Samples, p.MaxDepth)
	r := xrand.New(p.Seed)
	pop := make([]Individual, p.Population/8)
	for i := range pop {
		tr := RandomTree(r, NVars, p.MaxDepth)
		pop[i] = Individual{Tree: tr, Fitness: d.Fitness(tr)}
	}
	return d, pop
}

// Benchmark results land here so the compiler cannot drop the calls.
var (
	fitnessSink float64
	breedSink   []Program
)

// BenchmarkFitness scores one rank's shard: the evaluation every
// generation pays for.
func BenchmarkFitness(b *testing.B) {
	d, pop := paperShard()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ind := range pop {
			fitnessSink += d.Fitness(ind.Tree)
		}
	}
}

// BenchmarkBreed breeds one rank's next shard the way App.generation does
// (10 % mutation, 10 % reproduction, the rest crossover, tournament
// selection), without scoring it.
func BenchmarkBreed(b *testing.B) {
	_, pop := paperShard()
	maxDepth := DefaultParams().MaxDepth
	next := make([]Program, len(pop))
	r := xrand.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range next {
			switch r.Intn(10) {
			case 0:
				next[j] = Mutate(r, tourn(r, pop).Tree, NVars, maxDepth)
			case 1:
				next[j] = tourn(r, pop).Tree
			default:
				next[j] = Crossover(r, tourn(r, pop).Tree, tourn(r, pop).Tree, maxDepth)
			}
		}
	}
	breedSink = next
}

// BenchmarkGeneration breeds and scores one rank's next shard as
// App.generation does, from the same shard and migrants every op: a child
// that is a parent whole keeps its parent's fitness, the others are scored.
func BenchmarkGeneration(b *testing.B) {
	a, pop := breeder()
	a.breed(xrand.New(1)) // grows the pool and the second shard buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(a.st.Pop, pop)
		a.breed(xrand.New(uint64(i)))
	}
}
