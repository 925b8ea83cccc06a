package gps

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"samft/internal/xrand"
)

// perSampleFitness is the scorer Fitness replaced, kept as its reference:
// the program interpreted once per sample, the loss summed in sample order.
func perSampleFitness(d *Dataset, t Program) float64 {
	var sum float64
	for i, x := range d.X {
		p := t.Eval(x)
		if math.IsNaN(p) || math.IsInf(p, 0) {
			p = 1e6
		}
		e := p - d.Y[i]
		sum += e * e
	}
	return math.Sqrt(sum / float64(len(d.X)))
}

// checkFitness reports how fit, the fitness t was given, differs from the
// reference's bits, or nil.
func checkFitness(d *Dataset, t Program, fit float64) error {
	if w := perSampleFitness(d, t); math.Float64bits(fit) != math.Float64bits(w) {
		return fmt.Errorf("fitness %v (%#x), per-sample reference %v (%#x)", fit, math.Float64bits(fit), w, math.Float64bits(w))
	}
	return nil
}

// deepChain is a program depth levels deep whose binary operations nest
// in their second operand, the one scored a scratch level down, so it
// needs one scratch vector per level.
func deepChain(depth int) Program {
	p := Program{{Op: OpVar, Index: 0}}
	for l := 1; l < depth; l++ {
		p = append(Program{{Op: OpAdd + int32(l%4)}, {Op: OpVar, Index: int32(l % NVars)}}, p...)
	}
	return p
}

// TestFitnessMatchesPerSampleEval: scoring a program over all samples at
// once gives the per-sample scorer's bits, on random paper-depth programs
// from several seeds and datasets and on the programs random trees rarely
// are: protected divisions, overflows and NaNs the loss clamps, huge sine
// and cosine arguments, variable indices past the feature count, a lone
// leaf, and programs as deep as the scratch and deeper.
func TestFitnessMatchesPerSampleEval(t *testing.T) {
	datasets := []*Dataset{NewDataset(1996, 64, 7), NewDataset(5, 64, 7), NewDataset(77, 33, 7)}
	for s := uint64(1); s <= 4; s++ {
		r := xrand.New(s)
		for i := 0; i < 25000; i++ {
			p := RandomTree(r, NVars, 7)
			d := datasets[i%len(datasets)]
			if err := checkFitness(d, p, d.Fitness(p)); err != nil {
				t.Fatalf("seed %d, tree %d (%d nodes): %v", s, i, len(p), err)
			}
		}
	}

	c := func(v float64) Program { return Program{{Op: OpConst, Value: v}} }
	v := func(i int32) Program { return Program{{Op: OpVar, Index: i}} }
	op := func(o int32, kids ...Program) Program {
		p := Program{{Op: o}}
		for _, k := range kids {
			p = append(p, k...)
		}
		return p
	}
	cases := map[string]Program{
		"x/0":           op(OpDiv, v(0), c(0)),
		"0/0":           op(OpDiv, c(0), c(0)),
		"x/(x1-x1)":     op(OpDiv, v(2), op(OpSub, v(1), v(1))),
		"x/-0":          op(OpDiv, v(3), c(math.Copysign(0, -1))),
		"+Inf":          op(OpMul, c(1e300), op(OpAdd, c(1e300), v(0))),
		"-Inf":          op(OpNeg, op(OpMul, c(1e300), c(1e300))),
		"Inf-Inf":       op(OpSub, op(OpMul, c(1e300), c(1e300)), op(OpMul, c(1e300), c(1e300))),
		"x+cos(Inf)":    op(OpAdd, v(1), op(OpCos, op(OpMul, c(1e200), c(1e200)))),
		"sin(1e300)":    op(OpSin, c(1e300)),
		"cos(1e300)":    op(OpCos, c(1e300)),
		"cos(x*1e300)":  op(OpCos, op(OpMul, v(2), c(1e300))),
		"x4":            v(4),
		"x7-x1023":      op(OpSub, v(7), v(1023)),
		"lone constant": c(0.37),
		"lone variable": v(2),
	}
	for depth := 1; depth <= 9; depth++ {
		cases[fmt.Sprintf("chain of depth %d", depth)] = deepChain(depth)
	}
	for name, p := range cases {
		for i, d := range datasets {
			if err := checkFitness(d, p, d.Fitness(p)); err != nil {
				t.Errorf("%s, dataset %d: %v", name, i, err)
			}
		}
	}
}

// TestBredFitnessIsItsTreesFitness: across generations bred from a paper
// shard and migrants, every individual's fitness has the bits of a fresh
// scoring of its program, whether the child was scored or took a whole
// parent's fitness, a migrant's clone included.
func TestBredFitnessIsItsTreesFitness(t *testing.T) {
	a, pop := breeder()
	a.migrants = nil
	for _, ind := range pop[:7*a.p.TopK] {
		ind.Tree = ind.Tree.Clone() // decoded from a shard: storage of its own
		a.migrants = append(a.migrants, ind)
	}
	reused, cloned := 0, 0
	for gen := int64(1); gen <= 5; gen++ {
		parents := slices.Clone(a.st.Pop)
		a.breed(xrand.At(a.p.Seed, 0, gen))
		for i, ind := range a.st.Pop {
			if err := checkFitness(a.data, ind.Tree, ind.Fitness); err != nil {
				t.Fatalf("generation %d, individual %d: %v", gen, i, err)
			}
			switch {
			case slices.ContainsFunc(parents, func(p Individual) bool { return shares(p.Tree, ind.Tree) }):
				reused++
			case slices.ContainsFunc(a.migrants, func(m Individual) bool { return slices.Equal(m.Tree, ind.Tree) }):
				cloned++ // a migrant's program in storage of its own
			}
		}
	}
	if reused == 0 || cloned == 0 {
		t.Errorf("%d children shared a shard parent's program, %d cloned a migrant's: want both paths exercised", reused, cloned)
	}
}
