package stats

import (
	"math"
	"sort"
)

// ks.go provides empirical-distribution tooling: ECDFs and the two-sample
// Kolmogorov–Smirnov statistic. The test suite uses them to check that
// synthesized distributions (attack durations, intensities, thinned
// backscatter counts) actually follow their designed shapes rather than
// merely passing point assertions.

// ECDF is an empirical cumulative distribution function.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from samples (copied and sorted).
func NewECDF(samples []float64) *ECDF {
	s := make([]float64, len(samples))
	copy(s, samples)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// At returns F(x) = P(X <= x).
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(e.sorted, x)
	// move past ties so the CDF is right-continuous
	for i < len(e.sorted) && e.sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(e.sorted))
}

// N returns the sample count.
func (e *ECDF) N() int { return len(e.sorted) }

// KolmogorovSmirnov returns the two-sample KS statistic
// D = sup_x |F1(x) − F2(x)| over the pooled sample points. No production
// path calls it; scenario's tests hold generated distributions to their
// designed shapes with it.
func KolmogorovSmirnov(a, b []float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 1
	}
	fa, fb := NewECDF(a), NewECDF(b)
	var d float64
	for _, x := range fa.sorted {
		if diff := math.Abs(fa.At(x) - fb.At(x)); diff > d {
			d = diff
		}
	}
	for _, x := range fb.sorted {
		if diff := math.Abs(fa.At(x) - fb.At(x)); diff > d {
			d = diff
		}
	}
	return d
}

// KSCritical returns the approximate critical value of the two-sample KS
// statistic at significance alpha (0.05 or 0.01) for sample sizes n and m:
// c(α)·sqrt((n+m)/(n·m)).
func KSCritical(alpha float64, n, m int) float64 {
	c := 1.358 // alpha = 0.05
	if alpha <= 0.01 {
		c = 1.628
	}
	if n == 0 || m == 0 {
		return 1
	}
	return c * math.Sqrt(float64(n+m)/float64(n)/float64(m))
}
