// Package stats provides the small statistical toolkit the analysis uses:
// Pearson correlation (§6.4), quantiles, histograms, and logarithmic binning
// for the scatter figures (Figs. 7–13).
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Pearson returns the Pearson correlation coefficient of the paired samples,
// and false when it is undefined (mismatched lengths, fewer than two pairs,
// or zero variance in either series).
func Pearson(xs, ys []float64) (float64, bool) {
	if len(xs) != len(ys) || len(xs) < 2 {
		return 0, false
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, false
	}
	return sxy / math.Sqrt(sxx*syy), true
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. It returns 0 for empty input.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	if hi >= len(s) {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median returns the 0.5-quantile.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Histogram is a fixed-bin histogram over [Min, Max).
type Histogram struct {
	Min, Max float64
	Counts   []int64
	Under    int64 // samples below Min
	Over     int64 // samples at or above Max
	N        int64
}

// NewHistogram creates a histogram with bins equal-width bins over [min,max).
func NewHistogram(min, max float64, bins int) *Histogram {
	if bins <= 0 || max <= min {
		panic("stats: invalid histogram parameters")
	}
	return &Histogram{Min: min, Max: max, Counts: make([]int64, bins)}
}

// Add records a sample.
func (h *Histogram) Add(x float64) {
	h.N++
	switch {
	case x < h.Min:
		h.Under++
	case x >= h.Max:
		h.Over++
	default:
		i := int((x - h.Min) / (h.Max - h.Min) * float64(len(h.Counts)))
		if i >= len(h.Counts) { // guard float rounding at the upper edge
			i = len(h.Counts) - 1
		}
		h.Counts[i]++
	}
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Max - h.Min) / float64(len(h.Counts))
	return h.Min + (float64(i)+0.5)*w
}

// Modes returns the centers of local maxima with at least minCount samples,
// in descending count order. Used to verify the bimodal duration (§6.5) and
// intensity (§6.4) distributions.
func (h *Histogram) Modes(minCount int64) []float64 {
	type peak struct {
		center float64
		count  int64
	}
	var peaks []peak
	for i, c := range h.Counts {
		if c < minCount {
			continue
		}
		left := int64(0)
		if i > 0 {
			left = h.Counts[i-1]
		}
		right := int64(0)
		if i < len(h.Counts)-1 {
			right = h.Counts[i+1]
		}
		if c >= left && c >= right && (c > left || c > right) {
			peaks = append(peaks, peak{h.BinCenter(i), c})
		}
	}
	sort.Slice(peaks, func(i, j int) bool { return peaks[i].count > peaks[j].count })
	out := make([]float64, len(peaks))
	for i, p := range peaks {
		out[i] = p.center
	}
	return out
}

// LogBin maps a positive value to a decade bucket index: 0 for [1,10),
// 1 for [10,100), etc. Values below 1 map to -1. The scatter figures bucket
// NSSet hosted-domain counts by order of magnitude this way.
func LogBin(x float64) int {
	if x < 1 {
		return -1
	}
	return int(math.Floor(math.Log10(x)))
}

// LogBinLabel renders a decade bucket as "10^k–10^(k+1)".
func LogBinLabel(bin int) string {
	if bin < 0 {
		return "<1"
	}
	lo := int64(math.Pow(10, float64(bin)))
	hi := int64(math.Pow(10, float64(bin+1)))
	return itoa(lo) + "-" + itoa(hi)
}

func itoa(v int64) string {
	// small helper to render 10^k values with K/M suffixes for readability
	switch {
	case v >= 1_000_000 && v%1_000_000 == 0:
		return fmtInt(v/1_000_000) + "M"
	case v >= 1_000 && v%1_000 == 0:
		return fmtInt(v/1_000) + "K"
	default:
		return fmtInt(v)
	}
}

func fmtInt(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	neg := v < 0
	if neg {
		v = -v
	}
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// Ratio returns num/den, or 0 when den is 0; percentage columns in the
// tables use it.
func Ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
