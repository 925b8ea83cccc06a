package gps

import (
	"fmt"
	"math"
	"testing"

	"samft/internal/xrand"
)

// refNode is the pointer expression tree GPS evolved before programs
// became flat preorder arrays, kept verbatim as the oracle the flat
// operators must reproduce: the same trees, the same random draws in the
// same order, and the same fitness bits, so a run's answer is unchanged.
type refNode struct {
	Op    int32
	Value float64
	Index int32
	Kids  []*refNode
}

var refArity = map[int32]int{
	OpConst: 0, OpVar: 0,
	OpAdd: 2, OpSub: 2, OpMul: 2, OpDiv: 2,
	OpNeg: 1, OpSin: 1, OpCos: 1,
}

func (n *refNode) Eval(x []float64) float64 {
	switch n.Op {
	case OpConst:
		return n.Value
	case OpVar:
		return x[int(n.Index)%len(x)]
	case OpAdd:
		return n.Kids[0].Eval(x) + n.Kids[1].Eval(x)
	case OpSub:
		return n.Kids[0].Eval(x) - n.Kids[1].Eval(x)
	case OpMul:
		return n.Kids[0].Eval(x) * n.Kids[1].Eval(x)
	case OpDiv:
		d := n.Kids[1].Eval(x)
		if d == 0 {
			return 1
		}
		return n.Kids[0].Eval(x) / d
	case OpNeg:
		return -n.Kids[0].Eval(x)
	case OpSin:
		return math.Sin(n.Kids[0].Eval(x))
	case OpCos:
		return math.Cos(n.Kids[0].Eval(x))
	default:
		return 0
	}
}

func (n *refNode) Size() int {
	s := 1
	for _, k := range n.Kids {
		s += k.Size()
	}
	return s
}

func (n *refNode) Depth() int {
	d := 0
	for _, k := range n.Kids {
		if kd := k.Depth(); kd > d {
			d = kd
		}
	}
	return d + 1
}

func (n *refNode) Clone() *refNode {
	c := &refNode{Op: n.Op, Value: n.Value, Index: n.Index}
	if len(n.Kids) > 0 {
		c.Kids = make([]*refNode, len(n.Kids))
		for i, k := range n.Kids {
			c.Kids[i] = k.Clone()
		}
	}
	return c
}

func refRandomTree(r *xrand.Rand, nvars, maxDepth int) *refNode {
	if maxDepth <= 1 || r.Intn(4) == 0 {
		if r.Intn(2) == 0 {
			return &refNode{Op: OpVar, Index: int32(r.Intn(nvars))}
		}
		return &refNode{Op: OpConst, Value: math.Round((r.Float64()*4-2)*100) / 100}
	}
	op := int32(r.Intn(int(opCount-OpAdd))) + OpAdd
	n := &refNode{Op: op, Kids: make([]*refNode, refArity[op])}
	for i := range n.Kids {
		n.Kids[i] = refRandomTree(r, nvars, maxDepth-1)
	}
	return n
}

func refPickNode(root *refNode, idx int) (parent *refNode, slot int, node *refNode) {
	var walk func(p *refNode, s int, n *refNode) bool
	count := 0
	var fp *refNode
	var fs int
	var fn *refNode
	walk = func(p *refNode, s int, n *refNode) bool {
		if count == idx {
			fp, fs, fn = p, s, n
			return true
		}
		count++
		for i, k := range n.Kids {
			if walk(n, i, k) {
				return true
			}
		}
		return false
	}
	walk(nil, -1, root)
	return fp, fs, fn
}

func refCrossover(r *xrand.Rand, a, b *refNode, maxDepth int) *refNode {
	child := a.Clone()
	pa, sa, na := refPickNode(child, r.Intn(child.Size()))
	_, _, nb := refPickNode(b, r.Intn(b.Size()))
	graft := nb.Clone()
	if pa == nil {
		child = graft
	} else {
		pa.Kids[sa] = graft
		_ = na
	}
	if child.Depth() > maxDepth {
		return a.Clone() // reject oversized offspring
	}
	return child
}

func refMutate(r *xrand.Rand, a *refNode, nvars, maxDepth int) *refNode {
	child := a.Clone()
	pa, sa, _ := refPickNode(child, r.Intn(child.Size()))
	fresh := refRandomTree(r, nvars, 3)
	if pa == nil {
		child = fresh
	} else {
		pa.Kids[sa] = fresh
	}
	if child.Depth() > maxDepth {
		return a.Clone()
	}
	return child
}

// flatten lays a pointer tree out in preorder.
func flatten(n *refNode) Program { return n.appendTo(nil) }

func (n *refNode) appendTo(p Program) Program {
	p = append(p, Node{Op: n.Op, Index: n.Index, Value: n.Value})
	for _, k := range n.Kids {
		p = k.appendTo(p)
	}
	return p
}

// wellFormed reports why p is not one complete preorder tree of known
// operations, or nil.
func wellFormed(p Program) error {
	open := 1
	for i, n := range p {
		if open == 0 {
			return fmt.Errorf("node %d follows a complete tree", i)
		}
		if n.Op < 0 || n.Op >= opCount {
			return fmt.Errorf("node %d has unknown op %d", i, n.Op)
		}
		open += arity(n.Op) - 1
	}
	if open != 0 {
		return fmt.Errorf("%d subtrees missing after %d nodes", open, len(p))
	}
	if e := p.end(0); e != len(p) {
		return fmt.Errorf("end(0) = %d, want %d", e, len(p))
	}
	return nil
}

// sameProgram reports how got differs from want, or "". Values compare
// by bits.
func sameProgram(got, want Program) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d nodes, want %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Op != w.Op || g.Index != w.Index || math.Float64bits(g.Value) != math.Float64bits(w.Value) {
			return fmt.Sprintf("node %d is %+v, want %+v", i, g, w)
		}
	}
	return ""
}

// oracleStep checks one flat result against the oracle's: same program,
// same depth, and the same next draw from both streams.
func oracleStep(op string, got Program, want *refNode, r, rr *xrand.Rand) error {
	if err := wellFormed(got); err != nil {
		return fmt.Errorf("%s: malformed: %v", op, err)
	}
	if diff := sameProgram(got, flatten(want)); diff != "" {
		return fmt.Errorf("%s: %s", op, diff)
	}
	if g, w := got.Depth(), want.Depth(); g != w {
		return fmt.Errorf("%s: depth %d, oracle %d", op, g, w)
	}
	if g, w := r.Uint64(), rr.Uint64(); g != w {
		return fmt.Errorf("%s: next draw %#x, oracle %#x: the draws diverged", op, g, w)
	}
	return nil
}

// sameEval checks that p evaluates to the oracle's bits on every row.
func sameEval(p Program, ref *refNode, rows [][]float64) error {
	for i, x := range rows {
		if g, w := p.Eval(x), ref.Eval(x); math.Float64bits(g) != math.Float64bits(w) {
			return fmt.Errorf("row %d: Eval = %v (%#x), oracle %v (%#x)", i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
	return nil
}

// TestFlatOperatorsMatchPointerOracle breeds from 10 000 seeds with both
// representations side by side: every result, every depth, the random
// stream after every operator and every evaluation must agree.
func TestFlatOperatorsMatchPointerOracle(t *testing.T) {
	d := NewDataset(5, 64, 7)
	for seed := uint64(1); seed <= 10000; seed++ {
		maxDepth := 1 + int(seed%8)
		r, rr := xrand.New(seed), xrand.New(seed)
		fail := func(err error) {
			t.Fatalf("seed %d, maxDepth %d: %v", seed, maxDepth, err)
		}
		a, ra := RandomTree(r, NVars, maxDepth), refRandomTree(rr, NVars, maxDepth)
		if err := oracleStep("RandomTree a", a, ra, r, rr); err != nil {
			fail(err)
		}
		b, rb := RandomTree(r, NVars, maxDepth), refRandomTree(rr, NVars, maxDepth)
		if err := oracleStep("RandomTree b", b, rb, r, rr); err != nil {
			fail(err)
		}
		c, rc := Crossover(r, a, b, maxDepth), refCrossover(rr, ra, rb, maxDepth)
		if err := oracleStep("Crossover", c, rc, r, rr); err != nil {
			fail(err)
		}
		m, rm := Mutate(r, c, NVars, maxDepth), refMutate(rr, rc, NVars, maxDepth)
		if err := oracleStep("Mutate", m, rm, r, rr); err != nil {
			fail(err)
		}
		for _, p := range []struct {
			flat Program
			ref  *refNode
		}{{a, ra}, {c, rc}, {m, rm}} {
			if err := sameEval(p.flat, p.ref, d.X); err != nil {
				fail(err)
			}
		}
	}
}

// TestEvalEdgeCasesMatchOracle covers what random trees rarely reach: a
// divisor that is exactly (negative) zero, sin and cos of huge and
// infinite arguments, and variable indices past the feature count.
func TestEvalEdgeCasesMatchOracle(t *testing.T) {
	c := func(v float64) *refNode { return &refNode{Op: OpConst, Value: v} }
	v := func(i int32) *refNode { return &refNode{Op: OpVar, Index: i} }
	op := func(o int32, kids ...*refNode) *refNode { return &refNode{Op: o, Kids: kids} }
	cases := []struct {
		name string
		tree *refNode
		want float64 // on x = {2, 3, 5, 7}
	}{
		{"x/0", op(OpDiv, v(0), c(0)), 1},
		{"x/-0", op(OpDiv, v(0), c(math.Copysign(0, -1))), 1},
		{"x/(x1-x1)", op(OpDiv, v(2), op(OpSub, v(1), v(1))), 1},
		{"0/x", op(OpDiv, c(0), v(3)), 0},
		{"(x0/0)+(x1/x0)", op(OpAdd, op(OpDiv, v(0), c(0)), op(OpDiv, v(1), v(0))), 2.5},
		{"sin(1e300)", op(OpSin, c(1e300)), math.Sin(1e300)},
		{"cos(-1e22)", op(OpCos, c(-1e22)), math.Cos(-1e22)},
		{"cos(1e200*1e200)", op(OpCos, op(OpMul, c(1e200), c(1e200))), math.NaN()},
		{"sin(-(1e308+1e308))", op(OpSin, op(OpNeg, op(OpAdd, c(1e308), c(1e308)))), math.NaN()},
		{"x5", v(5), 3},
		{"x7 - x4", op(OpSub, v(7), v(4)), 5},
		{"x1023 * x9", op(OpMul, v(1023), v(9)), 21},
	}
	x := []float64{2, 3, 5, 7}
	for _, tc := range cases {
		p := flatten(tc.tree)
		if err := sameEval(p, tc.tree, [][]float64{x}); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		got := p.Eval(x)
		if math.IsNaN(tc.want) != math.IsNaN(got) || (!math.IsNaN(got) && got != tc.want) {
			t.Errorf("%s = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// FuzzBreed runs crossover then mutation on two random parents against
// the oracle: every result must be one well-formed tree no deeper than
// maxDepth, equal to the oracle's, with the random streams in step. Then it
// breeds two generations from the parents and a migrant: every program's
// fitness, scored or taken from a whole parent, must have the per-sample
// scorer's bits.
func FuzzBreed(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint64(3), uint8(7))
	f.Add(uint64(1996), uint64(7), uint64(0), uint8(1))
	f.Add(uint64(42), uint64(42), uint64(42), uint8(3))
	f.Fuzz(func(t *testing.T, seedA, seedB, drawSeed uint64, depth uint8) {
		maxDepth := 1 + int(depth%8)
		a, ra := RandomTree(xrand.New(seedA), NVars, maxDepth), refRandomTree(xrand.New(seedA), NVars, maxDepth)
		b, rb := RandomTree(xrand.New(seedB), NVars, maxDepth), refRandomTree(xrand.New(seedB), NVars, maxDepth)
		r, rr := xrand.New(drawSeed), xrand.New(drawSeed)
		c, rc := Crossover(r, a, b, maxDepth), refCrossover(rr, ra, rb, maxDepth)
		if err := oracleStep("Crossover", c, rc, r, rr); err != nil {
			t.Fatal(err)
		}
		m, rm := Mutate(r, c, NVars, maxDepth), refMutate(rr, rc, NVars, maxDepth)
		if err := oracleStep("Mutate", m, rm, r, rr); err != nil {
			t.Fatal(err)
		}
		d := NewDataset(drawSeed, 16, maxDepth)
		for _, p := range []Program{a, b, c, m} {
			if dp := p.Depth(); dp > maxDepth {
				t.Fatalf("depth %d > maxDepth %d", dp, maxDepth)
			}
			if err := checkFitness(d, p, d.Fitness(p)); err != nil {
				t.Fatal(err)
			}
		}
		app := &App{p: Params{MaxDepth: maxDepth}, data: d}
		app.st.Pop = []Individual{{Tree: a, Fitness: d.Fitness(a)}, {Tree: b, Fitness: d.Fitness(b)}}
		app.migrants = []Individual{{Tree: m.Clone(), Fitness: d.Fitness(m)}}
		for gen := 1; gen <= 2; gen++ {
			app.breed(r)
			for i, ind := range app.st.Pop {
				if err := checkFitness(d, ind.Tree, ind.Fitness); err != nil {
					t.Fatalf("generation %d, child %d: %v", gen, i, err)
				}
			}
		}
	})
}
