package experiments

import (
	"math"
	"testing"

	"samft/internal/ckpt"
	"samft/internal/cluster"
	"samft/internal/ft"
)

// TestConsistentBaselineCostsTimeNotAnswers covers internal/ckpt, the
// consistent-global-checkpointing baseline of ablation A3: wrapping an
// application with a periodic barrier and a modeled full-state dump to disk
// changes what the run costs — by at least one disk access — and never what
// it computes.
func TestConsistentBaselineCostsTimeNotAnswers(t *testing.T) {
	plain := Spec{App: GPS, Scale: Small, Config: cluster.Config{N: 4, Policy: ft.PolicyOff}}
	wrapped := plain
	wrapped.Consistent = true
	res, err := RunAll([]Spec{plain, wrapped})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res[1].Answer, res[0].Answer; math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("answer under the consistent-checkpointing wrapper = %v, plain run = %v", got, want)
	}
	if floor := res[0].ModeledSec + ckpt.DefaultConsistentConfig().DiskLatencyUS/1e6; res[1].ModeledSec < floor {
		t.Errorf("modeled time with global checkpoints = %.4fs, want at least the plain run plus one disk access = %.4fs",
			res[1].ModeledSec, floor)
	}
}
