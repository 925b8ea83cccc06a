package experiments

import (
	"math"
	"testing"

	"samft/internal/cluster"
	"samft/internal/ft"
)

// gpsPaperAnswer is the best fitness of the gps8 benchmark run (GPS at
// paper scale on 8 processes, the default dataset seed), as the pointer
// expression trees computed it. The flat programs that replaced them must
// breed and evaluate the same individuals, so the answer keeps every bit.
const gpsPaperAnswer = 0x3fb867a53bdb8a5f

// TestGPSPaperAnswer pins GPS's paper-scale answer bit for bit, with
// fault tolerance on (degree 1, as the benchmark runs it) and off.
func TestGPSPaperAnswer(t *testing.T) {
	ftOn := Spec{App: GPS, Scale: Paper, Config: cluster.Config{N: 8, Policy: ft.PolicySAM, Degree: 1}}
	off := ftOn
	off.Policy = ft.PolicyOff
	res, err := RunAll([]Spec{ftOn, off})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if got := math.Float64bits(r.Answer); got != gpsPaperAnswer {
			t.Errorf("policy %v: answer %v (%#x), want %v (%#x)", r.Spec.Policy,
				r.Answer, got, math.Float64frombits(gpsPaperAnswer), uint64(gpsPaperAnswer))
		}
	}
}
