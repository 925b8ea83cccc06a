package water

import (
	"math"
	"testing"
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
