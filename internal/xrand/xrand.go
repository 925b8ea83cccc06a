// Package xrand provides a small, deterministic, splittable PRNG
// (SplitMix64) used by the applications and workload generators.
// Determinism matters twice over: experiments must be reproducible, and
// the fault-tolerance framework replays application steps after a failure,
// so any randomness must be a pure function of (seed, rank, step).
package xrand

// Rand is a SplitMix64 generator. The zero value is a valid generator
// seeded with 0.
type Rand struct {
	state uint64
}

// New returns a generator with the given seed.
func New(seed uint64) *Rand { return &Rand{state: seed} }

// At returns a generator deterministically derived from a seed and two
// coordinates (typically rank and step), independent of call order.
func At(seed uint64, a, b int64) *Rand {
	r := New(seed ^ mix(uint64(a)+0x9e3779b97f4a7c15) ^ mix(mix(uint64(b))))
	r.Uint64() // decorrelate nearby coordinates
	return r
}

func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	return mix(r.state)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// NormFloat64 returns an approximately standard-normal variate
// (Irwin–Hall sum of 12 uniforms), adequate for workload synthesis.
func (r *Rand) NormFloat64() float64 {
	s := 0.0
	for i := 0; i < 12; i++ {
		s += r.Float64()
	}
	return s - 6
}
