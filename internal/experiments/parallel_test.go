package experiments

import (
	"runtime"
	"testing"

	"samft/internal/cluster"
	"samft/internal/ft"
)

// TestRunAllPreservesSpecOrder runs a mixed batch under a wide pool and
// checks every result lands at its spec's index (the property the
// `samrun paper` tables rely on for stable output).
func TestRunAllPreservesSpecOrder(t *testing.T) {
	specs := []Spec{
		{App: GPS, Scale: Small, Config: cluster.Config{N: 2}},
		{App: Barnes, Scale: Small, Config: cluster.Config{N: 1}},
		{App: GPS, Scale: Small, Config: cluster.Config{N: 1}},
		{App: Barnes, Scale: Small, Config: cluster.Config{N: 2}},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	results, err := RunAll(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(specs) {
		t.Fatalf("got %d results for %d specs", len(results), len(specs))
	}
	for i, res := range results {
		if res.Spec.App != specs[i].App || res.Spec.N != specs[i].N {
			t.Fatalf("result %d is for spec %+v, want %+v", i, res.Spec, specs[i])
		}
		if res.ModeledSec <= 0 {
			t.Fatalf("result %d has no modeled time", i)
		}
	}
}

// TestRunFigureParallelStructure runs the small-scale GPS figure's cells
// (no-FT then FT, each at 1 and 2 procs) one at a time and under a wide
// pool, and checks both sweeps return every cell at its spec's index.
// Modeled times carry run-to-run scheduling jitter, so only the structure
// is compared.
func TestRunFigureParallelStructure(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep skipped in -short mode")
	}
	var specs []Spec
	for _, policy := range []ft.Policy{ft.PolicyOff, ft.PolicySAM} {
		for _, n := range []int{1, 2} {
			specs = append(specs, Spec{App: GPS, Scale: Small, Config: cluster.Config{N: n, Policy: policy}})
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, pool := range []int{1, 4} {
		runtime.GOMAXPROCS(pool)
		results, err := RunAll(specs)
		if err != nil {
			t.Fatal(err)
		}
		if len(results) != len(specs) {
			t.Fatalf("pool %d: %d results for %d specs", pool, len(results), len(specs))
		}
		for i, res := range results {
			if res.Spec.N != specs[i].N || res.Spec.Policy != specs[i].Policy || res.ModeledSec <= 0 {
				t.Fatalf("pool %d: result %d is %v procs policy %v (%.4f s), want spec %+v",
					pool, i, res.Spec.N, res.Spec.Policy, res.ModeledSec, specs[i])
			}
		}
	}
}
