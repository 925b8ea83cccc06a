package main

import (
	"math"
	"sort"
)

// beyondPHi is how many samples must lie above the upper percentile a
// timing reports: with fewer, the percentile is one sample's luck.
const beyondPHi = 10

// Stat summarises one metric's samples. Only Median is gated; the rest
// says how much to trust it.
type Stat struct {
	Median float64 `json:"median"`
	N      int     `json:"n"`
	// Q1/Q3 are the quartiles of the samples (equal to Median when N < 2).
	Q1 float64 `json:"q1"`
	Q3 float64 `json:"q3"`
	// PHi is the sample at percentile PHiPct, the highest percentile with
	// at least beyondPHi samples beyond it; both are 0 when N is too small
	// for that percentile to lie above the median.
	PHi    float64 `json:"p_hi,omitempty"`
	PHiPct float64 `json:"p_hi_pct,omitempty"`
}

// summarize computes the Stat of samples (which it does not modify).
func summarize(samples []float64) Stat {
	n := len(samples)
	if n == 0 {
		return Stat{Median: math.NaN(), Q1: math.NaN(), Q3: math.NaN()}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	st := Stat{Median: quantile(s, 0.5), N: n, Q1: quantile(s, 0.25), Q3: quantile(s, 0.75)}
	if k := n - 1 - beyondPHi; k > n/2 {
		st.PHi = s[k]
		st.PHiPct = 100 * float64(k+1) / float64(n)
	}
	return st
}

// quantile interpolates linearly between the order statistics of a
// sorted, non-empty slice.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

func median(samples []float64) float64 { return summarize(samples).Median }

// relSpread estimates the relative standard error of the median from the
// samples' interquartile range (normal approximation: sigma = IQR/1.349,
// SE(median) = 1.2533*sigma/sqrt(n)). -compare uses it to tell "no
// change" from "cannot tell".
func (s Stat) relSpread() float64 {
	if s.N < 2 || s.Median == 0 {
		return 0
	}
	return 0.929 * (s.Q3 - s.Q1) / math.Abs(s.Median) / math.Sqrt(float64(s.N))
}
