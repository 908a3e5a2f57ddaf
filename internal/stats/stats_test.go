package stats

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %v", m)
	}
	if Mean(nil) != 0 {
		t.Error("empty input should give 0")
	}
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10}
	r, ok := Pearson(xs, ys)
	if !ok || !almostEqual(r, 1, 1e-12) {
		t.Errorf("perfect correlation r = %v ok=%v", r, ok)
	}
	neg := []float64{10, 8, 6, 4, 2}
	r, _ = Pearson(xs, neg)
	if !almostEqual(r, -1, 1e-12) {
		t.Errorf("perfect anticorrelation r = %v", r)
	}
}

func TestPearsonUndefined(t *testing.T) {
	if _, ok := Pearson([]float64{1, 2}, []float64{1}); ok {
		t.Error("length mismatch should be undefined")
	}
	if _, ok := Pearson([]float64{1}, []float64{1}); ok {
		t.Error("single pair should be undefined")
	}
	if _, ok := Pearson([]float64{3, 3, 3}, []float64{1, 2, 3}); ok {
		t.Error("zero variance should be undefined")
	}
}

func TestPearsonBounded(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 1))
		n := 3 + rng.IntN(40)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
			ys[i] = rng.NormFloat64()
		}
		r, ok := Pearson(xs, ys)
		return !ok || (r >= -1.0000001 && r <= 1.0000001)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if Median([]float64{5, 1, 3}) != 3 {
		t.Error("Median should sort input")
	}
	if Quantile(nil, 0.5) != 0 {
		t.Error("empty quantile should be 0")
	}
}

func TestQuantileMonotone(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 2))
		n := 1 + rng.IntN(30)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 100
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.1 {
			v := Quantile(xs, q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	for _, x := range []float64{-1, 0, 0.5, 5, 9.999, 10, 11} {
		h.Add(x)
	}
	if h.N != 7 {
		t.Errorf("N = %d", h.N)
	}
	if h.Under != 1 || h.Over != 2 {
		t.Errorf("Under=%d Over=%d", h.Under, h.Over)
	}
	if h.Counts[0] != 2 {
		t.Errorf("bin0 = %d, want 2 (0 and 0.5)", h.Counts[0])
	}
	if h.Counts[5] != 1 || h.Counts[9] != 1 {
		t.Errorf("bins = %v", h.Counts)
	}
}

func TestHistogramCountConservation(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 3))
		h := NewHistogram(0, 1, 7)
		n := rng.IntN(200)
		for i := 0; i < n; i++ {
			h.Add(rng.NormFloat64())
		}
		var sum int64
		for _, c := range h.Counts {
			sum += c
		}
		return sum+h.Under+h.Over == h.N && h.N == int64(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramModesBimodal(t *testing.T) {
	h := NewHistogram(0, 100, 20)
	// two clear modes at ~15 and ~60
	for i := 0; i < 100; i++ {
		h.Add(15)
		h.Add(62)
	}
	for i := 0; i < 10; i++ {
		h.Add(40)
	}
	modes := h.Modes(50)
	if len(modes) != 2 {
		t.Fatalf("modes = %v", modes)
	}
	if !almostEqual(modes[0], 12.5, 5.1) || !almostEqual(modes[1], 62.5, 5.1) {
		t.Errorf("mode centers = %v", modes)
	}
}

func TestLogBin(t *testing.T) {
	cases := []struct {
		x    float64
		want int
	}{
		{0.5, -1}, {1, 0}, {9.9, 0}, {10, 1}, {99, 1}, {100, 2}, {1e6, 6},
	}
	for _, c := range cases {
		if got := LogBin(c.x); got != c.want {
			t.Errorf("LogBin(%v) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestLogBinLabel(t *testing.T) {
	cases := []struct {
		bin  int
		want string
	}{
		{-1, "<1"}, {0, "1-10"}, {1, "10-100"}, {2, "100-1K"}, {3, "1K-10K"}, {6, "1M-10M"},
	}
	for _, c := range cases {
		if got := LogBinLabel(c.bin); got != c.want {
			t.Errorf("LogBinLabel(%d) = %q, want %q", c.bin, got, c.want)
		}
	}
}

func TestRatio(t *testing.T) {
	if Ratio(1, 2) != 0.5 {
		t.Error("Ratio(1,2)")
	}
	if Ratio(1, 0) != 0 {
		t.Error("Ratio by zero should be 0")
	}
}
