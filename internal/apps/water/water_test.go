package water

import (
	"fmt"
	"math"
	"testing"

	"samft/internal/xrand"
)

// TestWrapFoldsFarCoordinatesAtOnce: a coordinate many box widths outside
// the box is folded in one step. Stepping it back one box width at a time,
// x = -1e15 in a box of 12 takes about 8e13 iterations.
func TestWrapFoldsFarCoordinatesAtOnce(t *testing.T) {
	const box = 12.0
	got := wrap(Vec{-1e15, 1e15, 5}, box)
	// 1e15 = 12 * 83333333333333 + 4.
	if want := (Vec{8, 4, 5}); got != want {
		t.Fatalf("wrap = %+v, want %+v", got, want)
	}
	for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if w := wrap(Vec{x, 0, 0}, box); !math.IsNaN(w.X) {
			t.Errorf("wrap(%v) = %v, want NaN", x, w.X)
		}
	}
}

// TestWrapOnceIsOneAddOrSubtract: a coordinate at most one box width
// outside takes the single add or subtract it always did, bit for bit.
func TestWrapOnceIsOneAddOrSubtract(t *testing.T) {
	const box = 12.0
	for _, x := range []float64{-0.1, -11.9, 12, 12.3, 23.9, 0, 3.7, 11.999} {
		want := x
		if x < 0 {
			want = x + box
		} else if x >= box {
			want = x - box
		}
		if got := wrap(Vec{x, x, x}, box); got != (Vec{want, want, want}) {
			t.Errorf("wrap(%v) = %+v, want %v", x, got, want)
		}
	}
	// -1e-20 + 12 rounds to 12: the loop this replaces then subtracted
	// once more, to 0.
	if got := wrap(Vec{-1e-20, 0, 0}, box); got.X != 0 {
		t.Errorf("wrap(-1e-20) = %v, want 0", got.X)
	}
}

// allPairsForces is the reference for computeForces: the scan of every
// partner that the grid replaced, kept as it was.
func allPairsForces(p Params, f *Frame, lo, hi int64) *Forces {
	out := &Forces{Lo: lo, Hi: hi, F: make([]Vec, hi-lo)}
	box := p.BoxSize
	for i := lo; i < hi; i++ {
		var acc Vec
		for j := 0; j < p.Molecules; j++ {
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

// sameForces compares every force component and the energy bit for bit,
// task by task as Step splits the molecules, and returns the reference
// forces of the whole frame.
func sameForces(t *testing.T, what string, a *App, f *Frame) []Vec {
	t.Helper()
	all := make([]Vec, 0, a.p.Molecules)
	for _, task := range a.makeTasks(f.Step + 1) {
		lo, hi := task.Args[0], task.Args[1]
		got, want := a.computeForces(f, lo, hi), allPairsForces(a.p, f, lo, hi)
		if math.Float64bits(got.PotE) != math.Float64bits(want.PotE) {
			t.Errorf("%s [%d,%d): PotE %v, all pairs give %v", what, lo, hi, got.PotE, want.PotE)
		}
		for k, w := range want.F {
			g := got.F[k]
			if math.Float64bits(g.X) != math.Float64bits(w.X) || math.Float64bits(g.Y) != math.Float64bits(w.Y) ||
				math.Float64bits(g.Z) != math.Float64bits(w.Z) {
				t.Errorf("%s: molecule %d force %+v, all pairs give %+v", what, lo+int64(k), g, w)
			}
		}
		all = append(all, want.F...)
	}
	return all
}

// TestForcesMatchAllPairs: the grid kernel gives every force and energy
// bit of the all-pairs scan, on paper-scale frames, on molecules at and one
// ulp either side of slab faces and box edges, on a later frame decoded
// into an earlier one's storage, and on the frames that make every
// molecule a candidate.
func TestForcesMatchAllPairs(t *testing.T) {
	seeds := []uint64{1728, 1, 46}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		p := DefaultParams()
		p.Seed = seed
		a, f := New(0, 1, p), initialFrame(p)
		for step := 0; step <= 3; step++ {
			all := sameForces(t, fmt.Sprintf("seed %d step %d", seed, step), a, f)
			next := &Frame{Step: f.Step + 1, Pos: make([]Vec, p.Molecules), Vel: make([]Vec, p.Molecules)}
			for i := range f.Pos {
				next.Vel[i] = f.Vel[i].add(all[i].scale(p.Dt))
				next.Pos[i] = wrap(f.Pos[i].add(next.Vel[i].scale(p.Dt)), p.BoxSize)
			}
			f = next
		}
	}

	// Faces: every coordinate is a face between slabs a third or a quarter
	// of the box wide, one ulp either side of one, or a cutoff or a hair
	// under one away from one, so pairs at the cutoff straddle faces and
	// the box edge. A box of 10 would have slabs exactly a cutoff wide
	// without the margin.
	p := DefaultParams()
	p.Molecules = 512
	r := xrand.New(5)
	var faces *Frame
	for _, c := range []struct {
		box   float64
		slabs int
	}{{10, 3}, {12, 4}} {
		p.BoxSize = c.box
		var at []float64
		for m := 3; m <= 4; m++ {
			for k := 0; k < m; k++ {
				for _, d := range []float64{0, -cutoff, cutoff, -cutoff * (1 - 1e-15), cutoff * (1 - 1e-15)} {
					x := float64(k)*c.box/float64(m) + d
					for _, x := range []float64{math.Nextafter(x, -1), x, math.Nextafter(x, 13)} {
						at = append(at, wrap(Vec{x, 0, 0}, c.box).X)
					}
				}
			}
		}
		faces = &Frame{Pos: make([]Vec, p.Molecules)}
		for i := range faces.Pos {
			faces.Pos[i] = Vec{at[r.Intn(len(at))], at[r.Intn(len(at))], at[r.Intn(len(at))]}
		}
		faces.Pos[0] = Vec{0, 0, 0}
		last := math.Nextafter(c.box, 0)
		faces.Pos[1] = Vec{last, last, last}
		a := New(0, 1, p)
		sameForces(t, fmt.Sprintf("faces in box %v", c.box), a, faces)
		if a.grid.n != c.slabs {
			t.Errorf("faces in box %v: %d slabs per axis, want %d", c.box, a.grid.n, c.slabs)
		}
		// A later frame in the same storage, as a lent copy is: the grid
		// must follow the step, not the pointer.
		for i, v := range faces.Pos {
			faces.Pos[i] = wrap(Vec{v.X + 1.5, v.Y + 1.5, v.Z + 1.5}, c.box)
		}
		faces.Step++
		sameForces(t, fmt.Sprintf("later frame in box %v", c.box), a, faces)
	}

	// A coordinate outside the box: one slab per axis. Clamped into the
	// grid, the molecule at y = -2.9 (9.1 in the box) would miss its
	// partner at y = 8.
	outside := &Frame{Pos: append([]Vec(nil), faces.Pos...)}
	outside.Pos[7].Y = -2.9
	outside.Pos[8] = Vec{outside.Pos[7].X, 8, outside.Pos[7].Z}
	a := New(0, 1, p)
	sameForces(t, "outside", a, outside)
	if a.grid.n != 1 {
		t.Errorf("outside: %d slabs per axis, want 1", a.grid.n)
	}

	// Boxes under three cutoffs: every molecule is a candidate.
	for _, c := range []struct {
		box   float64
		slabs int
	}{{7, 2}, {4, 1}, {2, 1}} {
		p.BoxSize = c.box
		f := &Frame{Pos: make([]Vec, p.Molecules)}
		for i := range f.Pos {
			f.Pos[i] = Vec{r.Float64() * c.box, r.Float64() * c.box, r.Float64() * c.box}
		}
		a := New(0, 1, p)
		sameForces(t, fmt.Sprintf("box %v", c.box), a, f)
		if a.grid.n != c.slabs {
			t.Errorf("box %v: %d slabs per axis, want %d", c.box, a.grid.n, c.slabs)
		}
	}
}

// TestComputeForcesAllocatesOnlyItsResult: on a warm App a call allocates
// its Forces and their slice, and a new frame rebuilds the grid in the
// storage New allocated.
func TestComputeForcesAllocatesOnlyItsResult(t *testing.T) {
	p := DefaultParams()
	a := New(0, 1, p)
	f0 := initialFrame(p)
	f1 := &Frame{Step: 1, Pos: make([]Vec, p.Molecules)}
	for i, v := range f0.Pos {
		f1.Pos[i] = wrap(v, p.BoxSize)
	}
	a.computeForces(f0, 0, 8)
	if n := testing.AllocsPerRun(20, func() { a.computeForces(f0, 0, 8) }); n != 2 {
		t.Errorf("computeForces on a cached grid: %v allocs, want 2 (the Forces and their slice)", n)
	}
	near := &a.grid.near[0]
	frames := []*Frame{f0, f1}
	k := 0
	if n := testing.AllocsPerRun(20, func() { k++; a.computeForces(frames[k%2], 0, 8) }); n != 2 {
		t.Errorf("computeForces on a new frame: %v allocs, want 2 (the Forces and their slice)", n)
	}
	if &a.grid.near[0] != near {
		t.Error("the grid was rebuilt in new storage")
	}
}

var forcesSink *Forces

// BenchmarkComputeForces times one paper-scale time step's tasks, the grid
// built once for the frame as each process does.
func BenchmarkComputeForces(b *testing.B) {
	p := DefaultParams()
	a := New(0, 1, p)
	f := initialFrame(p)
	tasks := a.makeTasks(1)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		f.Step = int64(n) // a new frame each time: the grid is rebuilt
		for _, t := range tasks {
			forcesSink = a.computeForces(f, t.Args[0], t.Args[1])
		}
	}
}
