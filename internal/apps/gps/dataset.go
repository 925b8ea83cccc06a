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
//
// A Dataset is not safe for concurrent use: Fitness writes its scratch.
// Each App builds its own, and the cluster builds a fresh App per spawn.
type Dataset struct {
	X [][]float64 // feature vectors
	Y []float64   // target exposure
	// cols holds X by feature, the operands OpVar reads. vals holds one
	// vector of per-sample values per tree level: Fitness's scratch.
	cols [NVars][]float64
	vals [][]float64
}

// NVars is the number of features per sample.
const NVars = 4

// NewDataset synthesizes n samples from the given seed, with the scratch
// to score programs up to maxDepth levels deep without allocating.
func NewDataset(seed uint64, n, maxDepth int) *Dataset {
	r := xrand.New(seed)
	d := &Dataset{X: make([][]float64, n), Y: make([]float64, n)}
	for f := range d.cols {
		d.cols[f] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		hydro := r.Float64()*2 - 1 // hydrophobicity index
		size := r.Float64()        // normalized residue volume
		pos := r.Float64()         // relative chain position
		dens := r.Float64()        // local contact density
		d.X[i] = []float64{hydro, size, pos, dens}
		for f, v := range d.X[i] {
			d.cols[f][i] = v
		}
		exposure := 1 / (1 + math.Exp(3*hydro)) * (1 - 0.5*dens) * (0.8 + 0.2*math.Sin(6*pos)) * (1 - 0.3*size)
		exposure += 0.02 * r.NormFloat64() // measurement noise
		d.Y[i] = math.Min(1, math.Max(0, exposure))
	}
	d.vals = make([][]float64, max(maxDepth, 1))
	for l := range d.vals {
		d.vals[l] = make([]float64, n)
	}
	return d
}

// Fitness returns the root-mean-square error of a formula over the
// dataset; infinite or NaN predictions are clamped to a large penalty so
// fitness values totally order. The program is evaluated once over all
// samples, node by node: each prediction is made of the operations
// Program.Eval applies to that sample, on the same operands, so it has the
// same bits, and the loss is summed in sample order.
func (d *Dataset) Fitness(t Program) float64 {
	d.fill(t, 0, 0)
	var sum float64
	for i, p := range d.vals[0] {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			p = 1e6
		}
		e := p - d.Y[i]
		sum += e * e
	}
	return math.Sqrt(sum / float64(len(d.X)))
}

// fill writes the value of the subtree at i for every sample into
// d.vals[lvl] and returns the index just past the subtree. A binary node's
// second operand goes one level down, so a program of depth D needs D
// vectors; a deeper one grows the scratch.
func (d *Dataset) fill(p Program, i, lvl int) int {
	if lvl == len(d.vals) {
		d.vals = append(d.vals, make([]float64, len(d.Y)))
	}
	out := d.vals[lvl]
	n := &p[i]
	switch n.Op {
	case OpConst:
		for k := range out {
			out[k] = n.Value
		}
		return i + 1
	case OpVar:
		copy(out, d.cols[int(n.Index)%NVars])
		return i + 1
	case OpNeg, OpSin, OpCos:
		j := d.fill(p, i+1, lvl)
		switch n.Op {
		case OpNeg:
			for k, a := range out {
				out[k] = -a
			}
		case OpSin:
			for k, a := range out {
				out[k] = math.Sin(a)
			}
		default:
			for k, a := range out {
				out[k] = math.Cos(a)
			}
		}
		return j
	case OpAdd, OpSub, OpMul, OpDiv:
		j := d.fill(p, i+1, lvl)
		j = d.fill(p, j, lvl+1)
		b := d.vals[lvl+1][:len(out)]
		switch n.Op {
		case OpAdd:
			for k, a := range out {
				out[k] = a + b[k]
			}
		case OpSub:
			for k, a := range out {
				out[k] = a - b[k]
			}
		case OpMul:
			for k, a := range out {
				out[k] = a * b[k]
			}
		default:
			for k, a := range out {
				if b[k] == 0 {
					out[k] = 1
				} else {
					out[k] = a / b[k]
				}
			}
		}
		return j
	}
	clear(out)
	return i + 1
}
