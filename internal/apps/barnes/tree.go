// Package barnes reproduces the paper's Barnes-Hut application: an
// O(n log n) hierarchical n-body simulation (Barnes & Hut 1986) written in
// a shared-memory style on SAM. The headline run simulates 8000 bodies.
//
// Every step each process publishes its body partition as a value and
// folds its partition's mass moments into 8 shared per-octant accumulators
// (fine-grain nonreproducible traffic). It then gathers every partition,
// builds its own octree over all bodies and computes forces for its
// partition against it; SAM's caching serves the repeated partition reads.
// Only the octant moments are shared, not the tree. The fine grain of the
// accumulator traffic is why the paper measures the highest
// fault-tolerance overhead on this application.
package barnes

import (
	"math"

	"samft/internal/codec"
)

// Body is one particle.
type Body struct {
	Pos  [3]float64
	Vel  [3]float64
	Mass float64
}

func init() {
	codec.Register("barnes.Body", Body{})
	codec.Register("barnes.Partition", Partition{})
	codec.Register("barnes.Moments", Moments{})
	codec.Register("barnes.state", State{})
}

// Partition is the per-rank body slice published each step.
type Partition struct {
	Rank   int64
	Step   int64
	Lo, Hi int64
	Bodies []Body
}

// Moments is the shared accumulator per octant: the cooperative top of
// the tree. Every process folds its partition's mass moments in.
type Moments struct {
	Count int64
	Mass  float64
	// Weighted position sum; center of mass = Sum/Mass.
	Sum [3]float64
}

// State is the (empty) private state: bodies live in SAM values.
type State struct{ X int64 }

// Tree is an octree over a body set, rebuilt in place by Build. Its
// buffers are kept between builds, so a rebuild over as many bodies
// allocates nothing.
//
// Build inserts the bodies into cells; a layout pass then writes the
// cells depth-first into nodes, children in octant order 0…7, each node
// carrying its subtree's mass and center of mass and the index just past
// its subtree. Accel walks nodes in one loop.
type Tree struct {
	bodies []Body
	cells  []cell
	next   []int32 // next[b]: the body chained after b in its leaf, or -1
	nodes  []node
}

// cell is a node of the tree under construction. kids[i] == 0 means no
// child in octant i (cell 0 is the root, never a child). A leaf holds
// body >= 0; at maxTreeDepth coincident bodies chain after it through
// Tree.next in insertion order.
type cell struct {
	kids [8]int32
	body int32
}

// node kinds.
const (
	kindInternal = iota
	kindLeaf     // one body
	kindChain    // a leaf with coincident bodies chained after its own
)

// node is one laid-out cell.
type node struct {
	center [3]float64 // center of mass
	mass   float64
	size2  float64 // side length squared of the cube the cell covers
	skip   int32   // index of the first node after this subtree
	kind   uint8
}

const maxTreeDepth = 40

// Build rebuilds t over bodies within a cube of the given size anchored
// at the origin. t keeps bodies until the next Build.
func (t *Tree) Build(bodies []Body, size float64) {
	t.bodies = bodies
	if t.cells == nil {
		t.cells = make([]cell, 0, 2*len(bodies)+1)
	}
	if len(t.next) < len(bodies) {
		t.next = make([]int32, len(bodies))
	}
	t.cells = append(t.cells[:0], cell{body: -1})
	if len(bodies) > 0 {
		t.cells[0].body = 0
		t.next[0] = -1
	}
	for b := 1; b < len(bodies); b++ {
		t.insert(int32(b), size)
	}
	if cap(t.nodes) < len(t.cells) {
		// One node per cell. Sized like the cells, nodes are reallocated
		// only when the cells were, not each time the tree grows a little.
		t.nodes = make([]node, 0, cap(t.cells))
	}
	t.nodes = t.nodes[:0]
	t.layout(0, size)
}

// insert places body b, descending from the root. A leaf met on the way
// is split: its body moves one level down and b carries on from it.
func (t *Tree) insert(b int32, size float64) {
	pos := t.bodies[b].Pos
	mid := [3]float64{size / 2, size / 2, size / 2}
	c := int32(0)
	for depth := 0; ; depth++ {
		if old := t.cells[c].body; old >= 0 {
			if depth >= maxTreeDepth {
				// Coincident bodies: chain after the leaf's own.
				last := old
				for t.next[last] >= 0 {
					last = t.next[last]
				}
				t.next[last], t.next[b] = b, -1
				return
			}
			t.cells[c].body = -1
			idx, _ := octant(t.bodies[old].Pos, mid, size)
			t.cells[c].kids[idx] = t.newLeaf(old)
		}
		idx, nmid := octant(pos, mid, size)
		k := t.cells[c].kids[idx]
		if k == 0 {
			t.cells[c].kids[idx] = t.newLeaf(b)
			return
		}
		c, mid, size = k, nmid, size/2
	}
}

// octant returns which child of the cell centered at mid with side size
// holds pos, and that child's center.
func octant(pos, mid [3]float64, size float64) (int, [3]float64) {
	idx := 0
	q := size / 4
	var nmid [3]float64
	for d := 0; d < 3; d++ {
		if pos[d] >= mid[d] {
			idx |= 1 << d
			nmid[d] = mid[d] + q
		} else {
			nmid[d] = mid[d] - q
		}
	}
	return idx, nmid
}

func (t *Tree) newLeaf(b int32) int32 {
	t.next[b] = -1
	t.cells = append(t.cells, cell{body: b})
	return int32(len(t.cells) - 1)
}

// layout appends cell c's subtree to nodes depth-first and returns its
// mass and center of mass.
func (t *Tree) layout(c int32, size float64) (float64, [3]float64) {
	i := len(t.nodes)
	t.nodes = append(t.nodes, node{size2: size * size})
	cl := &t.cells[c]
	var mass float64
	var sum, center [3]float64
	kind := uint8(kindInternal)
	switch {
	case cl.body >= 0 && t.next[cl.body] < 0:
		b := &t.bodies[cl.body]
		mass, center, kind = b.Mass, b.Pos, kindLeaf
	case cl.body >= 0:
		b := &t.bodies[cl.body]
		mass, kind = b.Mass, kindChain
		for d := 0; d < 3; d++ {
			sum[d] = b.Pos[d] * b.Mass
		}
		for k := t.next[cl.body]; k >= 0; k = t.next[k] {
			kb := &t.bodies[k]
			mass += kb.Mass
			for d := 0; d < 3; d++ {
				sum[d] += kb.Pos[d] * kb.Mass
			}
		}
	default:
		for _, k := range cl.kids {
			if k == 0 {
				continue
			}
			km, kc := t.layout(k, size/2)
			mass += km
			for d := 0; d < 3; d++ {
				sum[d] += kc[d] * km
			}
		}
	}
	if kind != kindLeaf && mass > 0 {
		for d := 0; d < 3; d++ {
			center[d] = sum[d] / mass
		}
	}
	n := &t.nodes[i]
	n.center, n.mass, n.kind, n.skip = center, mass, kind, int32(len(t.nodes))
	return mass, center
}

// Mass returns the total mass of the bodies the tree was built over.
func (t *Tree) Mass() float64 { return t.nodes[0].mass }

// Accel computes the acceleration on a body at pos using the opening
// criterion theta; softening eps avoids singularities. A cell whose size
// is small against its distance is taken whole. A leaf taken whole within
// the softening of pos is the body itself and contributes nothing. A
// chained leaf is never opened: too close to be taken whole, it still
// contributes its whole mass, with no self-interaction test.
func (t *Tree) Accel(pos [3]float64, theta, eps float64) [3]float64 {
	var acc [3]float64
	th2, self := theta*theta, eps*1.0001
	nodes := t.nodes
	for i := 0; i < len(nodes); {
		n := &nodes[i]
		next := int(n.skip)
		if n.mass == 0 {
			i = next
			continue
		}
		dx := n.center[0] - pos[0]
		dy := n.center[1] - pos[1]
		dz := n.center[2] - pos[2]
		r2 := dx*dx + dy*dy + dz*dz + eps
		if n.kind == kindInternal {
			if !(n.size2 < th2*r2) {
				i++ // open the cell
				continue
			}
		} else if r2 < self && (n.kind == kindLeaf || n.size2 < th2*r2) {
			i = next // self-interaction
			continue
		}
		inv := n.mass / (r2 * math.Sqrt(r2))
		acc[0] += dx * inv
		acc[1] += dy * inv
		acc[2] += dz * inv
		i = next
	}
	return acc
}
