package barnes

import (
	"math"
	"testing"
)

// paperBodies is the initial state of the paper's 8000-body run on 8
// processes: every rank's partition, in rank order.
func paperBodies() []Body {
	p := DefaultParams()
	const n = 8
	var all []Body
	for r := 0; r < n; r++ {
		all = append(all, plummerish(p, r*p.Bodies/n, (r+1)*p.Bodies/n)...)
	}
	return all
}

// edgeBodies is 200 paper bodies plus coincident copies of ten of them
// (heavier, chained at the maximum depth), two bodies at every corner of
// the cube and one clamped onto a corner from outside it.
func edgeBodies() []Body {
	p := DefaultParams()
	bs := paperBodies()[:200]
	for i := 0; i < 10; i++ {
		for k := 0; k <= i%3; k++ {
			d := bs[i]
			d.Mass *= float64(k + 2)
			bs = append(bs, d)
		}
	}
	top := math.Nextafter(p.Size, 0)
	for c := 0; c < 8; c++ {
		var pos [3]float64
		for d := 0; d < 3; d++ {
			if c&(1<<d) != 0 {
				pos[d] = top
			}
		}
		for k := 0; k < 2; k++ {
			bs = append(bs, Body{Pos: pos, Mass: 1.0 / 8000})
		}
	}
	return append(bs, Body{Pos: [3]float64{clampTo(-1, p.Size), clampTo(17, p.Size), clampTo(p.Size, p.Size)}, Mass: 1.0 / 8000})
}

// accelDigest hashes the tree's mass and center and the acceleration at
// every body, at three points of which two lie on or outside the cube, and
// at two points closer to the first body than the softening's
// self-interaction radius.
func accelDigest(bodies []Body, size, theta float64) uint64 {
	var t Tree
	t.Build(bodies, size)
	root := t.nodes[0]
	h := fnvAdd(fnvOffset, root.mass, root.center[0], root.center[1], root.center[2])
	for i := range bodies {
		a := t.Accel(bodies[i].Pos, theta, 1e-4)
		h = fnvAdd(h, a[0], a[1], a[2])
	}
	queries := [][3]float64{{8, 8, 8}, {0, 0, 0}, {20, -3, 5}}
	for _, off := range [][3]float64{{5e-5, 0, 0}, {0, -3e-5, 2e-5}} {
		p := bodies[0].Pos
		queries = append(queries, [3]float64{p[0] + off[0], p[1] + off[1], p[2] + off[2]})
	}
	for _, q := range queries {
		a := t.Accel(q, theta, 1e-4)
		h = fnvAdd(h, a[0], a[1], a[2])
	}
	return h
}

// TestAccelGolden pins the force kernel bit for bit. The constants were
// computed with the recursive pointer octree this flat tree replaced.
func TestAccelGolden(t *testing.T) {
	want := map[string]map[float64]uint64{
		"paper": {0: 0xf2a5f42920eaebbb, 0.3: 0xaf6c4da8f8acaaf5, 0.6: 0xf01df7dc062ee8ad, 1: 0x1c4ccc46a010d435},
		"edge": {0: 0x09d6900af076ec0c, 0.3: 0xe0babb82bb330307, 0.6: 0x726b28c7ec366ff4, 1: 0x3d0c0d59ba30f6c1,
			// At the softening's distance this theta opens every cell above
			// the maximum depth and accepts the chained leaves there, so a
			// query at a chain takes the self-interaction test.
			2e-9: 0x40bf2cecbdc704c3},
	}
	sets := map[string][]Body{"paper": paperBodies(), "edge": edgeBodies()}
	for name, bodies := range sets {
		for theta, w := range want[name] {
			if got := accelDigest(bodies, DefaultParams().Size, theta); got != w {
				t.Errorf("%s bodies, theta %v: accel digest %#016x, want %#016x", name, theta, got, w)
			}
		}
	}
}

// TestRebuildReusesTheTree: a tree rebuilt over other bodies answers as a
// fresh one does.
func TestRebuildReusesTheTree(t *testing.T) {
	edge, paper := edgeBodies(), paperBodies()
	var fresh, reused Tree
	reused.Build(paper, 16)
	reused.Build(edge, 16)
	fresh.Build(edge, 16)
	if len(fresh.nodes) != len(reused.nodes) {
		t.Fatalf("rebuilt tree has %d nodes, fresh one %d", len(reused.nodes), len(fresh.nodes))
	}
	for i := range edge {
		if a, b := reused.Accel(edge[i].Pos, 0.6, 1e-4), fresh.Accel(edge[i].Pos, 0.6, 1e-4); a != b {
			t.Fatalf("body %d: rebuilt tree gives %v, fresh one %v", i, a, b)
		}
	}
}

func TestBuildAndAccelAllocateNothing(t *testing.T) {
	bodies := paperBodies()
	var tr Tree
	tr.Build(bodies, 16)
	if n := testing.AllocsPerRun(3, func() { tr.Build(bodies, 16) }); n != 0 {
		t.Errorf("rebuild: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(10, func() { tr.Accel(bodies[7].Pos, 0.6, 1e-4) }); n != 0 {
		t.Errorf("Accel: %v allocs, want 0", n)
	}
}

func TestDigestSeesEveryBit(t *testing.T) {
	bodies := edgeBodies()
	d := Digest(bodies)
	if Digest(bodies) != d {
		t.Fatal("digest is not a function of the bodies")
	}
	for _, f := range []func(*Body) *float64{
		func(b *Body) *float64 { return &b.Pos[0] },
		func(b *Body) *float64 { return &b.Pos[2] },
		func(b *Body) *float64 { return &b.Vel[1] },
	} {
		for _, i := range []int{0, len(bodies) / 2, len(bodies) - 1} {
			changed := append([]Body(nil), bodies...)
			x := f(&changed[i])
			*x = math.Nextafter(*x, math.Inf(1))
			if Digest(changed) == d {
				t.Errorf("body %d: one ulp more in a coordinate left the digest at %v", i, d)
			}
		}
	}
}

func BenchmarkTreeBuild(b *testing.B) {
	bodies := paperBodies()
	var tr Tree
	tr.Build(bodies, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Build(bodies, 16)
	}
}

// BenchmarkTreeAccel walks the tree for one rank's 1000 bodies, as each
// of the paper run's 8 processes does every step.
func BenchmarkTreeAccel(b *testing.B) {
	bodies := paperBodies()
	var tr Tree
	tr.Build(bodies, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 1000; j++ {
			tr.Accel(bodies[j].Pos, 0.6, 1e-4)
		}
	}
}
