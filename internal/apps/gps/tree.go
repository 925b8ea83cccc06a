// Package gps reproduces the paper's GPS application: genetic programming
// that evolves a formula predicting the degree of exposure to solvent of
// amino-acid residues (Handley 1994). The population is distributed evenly
// across the processes; each generation every process evaluates its shard,
// exchanges its best individuals with the other processes through
// single-assignment values, and breeds the next shard locally. The
// communication pattern is coarse-grained and value-dominated, which is
// why the paper measures almost no fault-tolerance overhead for GPS.
package gps

import (
	"math"

	"samft/internal/codec"
	"samft/internal/xrand"
)

// Node operation codes. A Node is a typed union: OpConst uses Value,
// OpVar uses Index, everything else takes the subtrees that follow it.
const (
	OpConst int32 = iota
	OpVar
	OpAdd
	OpSub
	OpMul
	OpDiv // protected: x/0 == 1
	OpNeg
	OpSin
	OpCos
	opCount
)

// arity returns an operation's child count (0 for leaves and unknown ops).
func arity(op int32) int {
	switch {
	case op >= OpAdd && op <= OpDiv:
		return 2
	case op >= OpNeg && op < opCount:
		return 1
	}
	return 0
}

// Node is one vertex of an expression tree.
type Node struct {
	Op    int32
	Index int32
	Value float64
}

// Program is an expression tree flattened in preorder: each node is
// followed by its children's subtrees, first child first. A program is
// immutable once built, so individuals share it instead of copying it,
// and it travels as one slice of scalars inside SAM objects.
type Program []Node

// Individual is one candidate formula with its cached fitness.
type Individual struct {
	Tree    Program
	Fitness float64 // lower is better (RMS error); NaN-free by construction
}

func init() {
	codec.Register("gps.Program", Program{})
	codec.Register("gps.Individual", Individual{})
	codec.Register("gps.Shard", Shard{})
	codec.Register("gps.Best", Best{})
}

// Shard is the SAM value one process publishes per generation: its top-K
// individuals, used as migrants by every other process.
type Shard struct {
	Rank int64
	Gen  int64
	Tops []Individual
}

// Best is the accumulator tracking the globally best individual seen.
type Best struct {
	Fitness float64
	Found   bool
	Tree    Program
}

// Eval computes the program's value on one sample.
func (p Program) Eval(x []float64) float64 {
	v, _ := p.eval(0, x)
	return v
}

// eval computes the subtree at i and returns its value and the index just
// past it. Operands are evaluated first to last, as the tree reads.
func (p Program) eval(i int, x []float64) (float64, int) {
	n := &p[i]
	switch n.Op {
	case OpConst:
		return n.Value, i + 1
	case OpVar:
		return x[int(n.Index)%len(x)], i + 1
	case OpNeg, OpSin, OpCos:
		a, j := p.eval(i+1, x)
		switch n.Op {
		case OpNeg:
			return -a, j
		case OpSin:
			return math.Sin(a), j
		}
		return math.Cos(a), j
	case OpAdd, OpSub, OpMul, OpDiv:
		a, j := p.eval(i+1, x)
		b, j := p.eval(j, x)
		switch n.Op {
		case OpAdd:
			return a + b, j
		case OpSub:
			return a - b, j
		case OpMul:
			return a * b, j
		}
		if b == 0 {
			return 1, j
		}
		return a / b, j
	}
	return 0, i + 1
}

// end returns the index just past the subtree rooted at i.
func (p Program) end(i int) int {
	for open := 1; open > 0; i++ {
		open += arity(p[i].Op) - 1
	}
	return i
}

// Depth returns the tree height.
func (p Program) Depth() int {
	d, _ := p.depth(0)
	return d
}

// depth returns the height of the subtree at i and the index just past it.
func (p Program) depth(i int) (int, int) {
	d, j := 0, i+1
	for k := arity(p[i].Op); k > 0; k-- {
		var kd int
		kd, j = p.depth(j)
		d = max(d, kd)
	}
	return d + 1, j
}

// Clone copies the program.
func (p Program) Clone() Program { return append(Program(nil), p...) }

// RandomTree builds a random program with the "grow" method up to maxDepth.
func RandomTree(r *xrand.Rand, nvars, maxDepth int) Program {
	return appendRandom(nil, r, nvars, maxDepth)
}

// appendRandom appends a random subtree to p in preorder.
func appendRandom(p Program, r *xrand.Rand, nvars, maxDepth int) Program {
	if maxDepth <= 1 || r.Intn(4) == 0 {
		if r.Intn(2) == 0 {
			return append(p, Node{Op: OpVar, Index: int32(r.Intn(nvars))})
		}
		return append(p, Node{Op: OpConst, Value: math.Round((r.Float64()*4-2)*100) / 100})
	}
	op := int32(r.Intn(int(opCount-OpAdd))) + OpAdd
	p = append(p, Node{Op: op})
	for k := arity(op); k > 0; k-- {
		p = appendRandom(p, r, nvars, maxDepth-1)
	}
	return p
}

// Crossover grafts a random subtree of b over a random subtree of a copy
// of a, returning a new program (neither input is modified). Offspring
// deeper than maxDepth is rejected: a itself is returned.
func Crossover(r *xrand.Rand, a, b Program, maxDepth int) Program {
	i := r.Intn(len(a))
	j := r.Intn(len(b))
	ei, ej := a.end(i), b.end(j)
	child := make(Program, 0, len(a)-(ei-i)+(ej-j))
	child = append(append(append(child, a[:i]...), b[j:ej]...), a[ei:]...)
	if child.Depth() > maxDepth {
		return a
	}
	return child
}

// freshDepth bounds the subtree Mutate grows; such a subtree has at most
// 2^freshDepth-1 nodes.
const freshDepth = 3

// Mutate replaces a random subtree with a fresh random one. Offspring
// deeper than maxDepth is rejected: a itself is returned.
func Mutate(r *xrand.Rand, a Program, nvars, maxDepth int) Program {
	i := r.Intn(len(a))
	ei := a.end(i)
	child := append(make(Program, 0, len(a)-(ei-i)+(1<<freshDepth-1)), a[:i]...)
	child = append(appendRandom(child, r, nvars, freshDepth), a[ei:]...)
	if child.Depth() > maxDepth {
		return a
	}
	return child
}
