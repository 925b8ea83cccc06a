package gps

import (
	"math"

	"samft/internal/xrand"
)

// Dataset is the regression problem the population is evolved against: a
// synthetic stand-in for Handley's solvent-exposure data (per-residue
// physico-chemical features and an exposure fraction in [0,1]). The
// generator is deterministic so every process derives an identical copy
// without communication, and the underlying formula is a plausible
// nonlinear mix of hydrophobicity, residue size, chain position, and
// neighbor density — enough structure that evolved formulas can make real
// progress, which is what the experiment's runtime behaviour depends on.
type Dataset struct {
	X [][]float64 // feature vectors
	Y []float64   // target exposure
}

// NVars is the number of features per sample.
const NVars = 4

// NewDataset synthesizes n samples from the given seed.
func NewDataset(seed uint64, n int) *Dataset {
	r := xrand.New(seed)
	d := &Dataset{X: make([][]float64, n), Y: make([]float64, n)}
	for i := 0; i < n; i++ {
		hydro := r.Float64()*2 - 1 // hydrophobicity index
		size := r.Float64()        // normalized residue volume
		pos := r.Float64()         // relative chain position
		dens := r.Float64()        // local contact density
		d.X[i] = []float64{hydro, size, pos, dens}
		exposure := 1 / (1 + math.Exp(3*hydro)) * (1 - 0.5*dens) * (0.8 + 0.2*math.Sin(6*pos)) * (1 - 0.3*size)
		exposure += 0.02 * r.NormFloat64() // measurement noise
		d.Y[i] = math.Min(1, math.Max(0, exposure))
	}
	return d
}

// Fitness returns the root-mean-square error of a formula over the
// dataset; infinite or NaN predictions are clamped to a large penalty so
// fitness values totally order.
func (d *Dataset) Fitness(t Program) float64 {
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
