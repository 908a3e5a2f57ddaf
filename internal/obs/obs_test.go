package obs

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestCounterGaugeBasics covers the scalar metrics including nil-safety.
func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("c")
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Errorf("counter = %d, want 42", got)
	}
	if r.Counter("c") != c {
		t.Error("second lookup must return the same counter")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Add(-2)
	if got := g.Load(); got != 5 {
		t.Errorf("gauge = %d, want 5", got)
	}

	// nil registry and nil metrics are inert, not crashes
	var nilReg *Registry
	nilReg.Counter("x").Inc()
	nilReg.Gauge("x").Set(1)
	nilReg.Histogram("x").Observe(time.Second)
	if n := nilReg.Counter("x").Load(); n != 0 {
		t.Errorf("nil counter loaded %d", n)
	}
	snap := nilReg.Snapshot()
	if len(snap.Counters) != 0 {
		t.Error("nil registry snapshot must be empty")
	}
}

// TestKindMismatchPanics: one name, two kinds is a programming error.
func TestKindMismatchPanics(t *testing.T) {
	r := New()
	r.Counter("m")
	defer func() {
		if recover() == nil {
			t.Error("registering a counter name as a histogram must panic")
		}
	}()
	r.Histogram("m")
}

// TestConcurrentCountersExact hammers one counter from N goroutines and
// asserts the total is exact — the -race leg of the concurrency sweep.
func TestConcurrentCountersExact(t *testing.T) {
	const goroutines, perG = 16, 5000
	r := New()
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("hits") // concurrent get-or-create on purpose
			for j := 0; j < perG; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits").Load(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
}

// TestConcurrentHistogramExact hammers a histogram from N goroutines:
// the observation count must be exact and the bucket sums must equal it.
func TestConcurrentHistogramExact(t *testing.T) {
	const goroutines, perG = 16, 5000
	r := New()
	h := r.Histogram("lat")
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				// spread observations across many buckets
				h.Observe(time.Duration(seed*perG+j) * 37 * time.Microsecond)
			}
		}(i)
	}
	wg.Wait()
	snap := h.Snapshot()
	if snap.Count != goroutines*perG {
		t.Errorf("count = %d, want %d", snap.Count, goroutines*perG)
	}
	var binned int64
	for _, b := range snap.Buckets {
		binned += b.Count
	}
	if binned != snap.Count {
		t.Errorf("bucket sums %d != observation count %d", binned, snap.Count)
	}
	wantMax := time.Duration(goroutines*perG-1) * 37 * time.Microsecond
	if got := time.Duration(snap.MaxNS); got != wantMax {
		t.Errorf("max = %v, want %v", got, wantMax)
	}
}

// TestHistogramQuantiles checks the bucket-walk estimator against a
// known distribution.
func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	// p50 lands in the bucket covering 500ms: [2^18µs, 2^19µs), about
	// [262ms, 524ms)
	if p50 := h.Quantile(0.5); p50 < 500*time.Millisecond || p50 > 550*time.Millisecond {
		t.Errorf("p50 = %v, want within [500ms, 550ms]", p50)
	}
	// inside its bucket the estimate interpolates by rank: p50 is
	// 500.3ms and p90 900.1ms where the buckets' bounds read 524ms and 1s
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{{0.5, 500 * time.Millisecond}, {0.9, 900 * time.Millisecond}} {
		if got := h.Quantile(c.q); got < c.want*99/100 || got > c.want*101/100 {
			t.Errorf("p%v = %v, want within 1%% of %v", c.q*100, got, c.want)
		}
	}
	// the max quantile is exact
	if p100 := h.Quantile(1); p100 != time.Second {
		t.Errorf("p100 = %v, want 1s", p100)
	}
	if h.Quantile(0.99) > h.Quantile(1) {
		t.Error("quantiles must be monotone")
	}
	// zero observations
	if (&Histogram{}).Quantile(0.5) != 0 {
		t.Error("empty histogram quantile must be 0")
	}
}

// TestBucketIndexBounds pins the bucket layout: sub-µs in bucket 0,
// doubling thereafter, overflow clamped to the last bucket.
func TestBucketIndexBounds(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{-time.Second, 0},
		{0, 0},
		{999 * time.Nanosecond, 0},
		{time.Microsecond, 1},
		{2 * time.Microsecond, 2},
		{3 * time.Microsecond, 2},
		{4 * time.Microsecond, 3},
		{time.Hour, NumBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketIndex(c.d); got != c.want {
			t.Errorf("bucketIndex(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	for i := 0; i < NumBuckets-1; i++ {
		ub := BucketUpperBound(i)
		if bucketIndex(ub-time.Nanosecond) > i {
			t.Errorf("upper bound of bucket %d (%v) maps above it", i, ub)
		}
		if bucketIndex(ub) != i+1 {
			t.Errorf("bound %v must open bucket %d", ub, i+1)
		}
	}
	if BucketUpperBound(NumBuckets-1) >= 0 {
		t.Error("overflow bucket must be unbounded")
	}
}

// TestObserveAllocationFree asserts the hot-path promise: Observe does
// not allocate.
func TestObserveAllocationFree(t *testing.T) {
	h := New().Histogram("lat")
	d := 3 * time.Millisecond
	if allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(d)
		d += time.Microsecond
	}); allocs != 0 {
		t.Errorf("Observe allocates %.1f objects per call, want 0", allocs)
	}
	c := New().Counter("n")
	if allocs := testing.AllocsPerRun(1000, func() { c.Inc() }); allocs != 0 {
		t.Errorf("Counter.Inc allocates %.1f objects per call, want 0", allocs)
	}
	// a metric already registered is looked up without allocating: the
	// study ledger folds a day's counts by name, five look-ups a day
	reg := New()
	reg.Counter("c")
	reg.Gauge("g", Volatile())
	reg.Histogram("h")
	if allocs := testing.AllocsPerRun(1000, func() {
		reg.Counter("c").Inc()
		reg.Gauge("g", Volatile()).Set(1)
		reg.Histogram("h").Observe(d)
	}); allocs != 0 {
		t.Errorf("looking up registered metrics allocates %.1f objects per call, want 0", allocs)
	}
}

// TestMerge: counters add, histograms add bucket-wise, max is max.
func TestMerge(t *testing.T) {
	a, b := New(), New()
	a.Counter("n").Add(3)
	b.Counter("n").Add(4)
	b.Counter("only_b").Add(9)
	b.Gauge("g").Set(5)
	a.Histogram("h").Observe(time.Millisecond)
	b.Histogram("h").Observe(2 * time.Millisecond)
	b.Histogram("h", Volatile()) // volatility rides along, harmless repeat
	b.Counter("wall", Volatile()).Add(2)

	a.Merge(b)
	if got := a.Counter("n").Load(); got != 7 {
		t.Errorf("merged counter = %d, want 7", got)
	}
	if got := a.Counter("only_b").Load(); got != 9 {
		t.Errorf("merged new counter = %d, want 9", got)
	}
	if got := a.Gauge("g").Load(); got != 5 {
		t.Errorf("merged gauge = %d, want 5", got)
	}
	h := a.Histogram("h").Snapshot()
	if h.Count != 2 || h.MaxNS != int64(2*time.Millisecond) {
		t.Errorf("merged histogram count=%d max=%d", h.Count, h.MaxNS)
	}
	if got := a.Snapshot().Counters["wall"]; got != 2 {
		t.Errorf("merged volatile counter = %d, want 2", got)
	}
	if _, ok := a.StableSnapshot().Counters["wall"]; ok {
		t.Error("a volatile metric new to the destination must stay out of its StableSnapshot")
	}
}

// mergeSnapshots is the oracle Merge is held to, summed at the level of
// snapshots: counters and histogram buckets, counts and sums add, a
// histogram's max is the larger, gauges take src's value, and a metric
// new to dst takes src's volatility. It returns what dst's full and
// stable snapshots must read after dst.Merge(src). Quantiles are derived
// from the buckets and max compared here, so it leaves them zero.
func mergeSnapshots(dst, src *Registry) (full, stable Snapshot) {
	d, s := dst.Snapshot(), src.Snapshot()
	full = Snapshot{Counters: map[string]int64{}, Gauges: map[string]int64{}, Histograms: map[string]HistogramSnapshot{}}
	for name, v := range d.Counters {
		full.Counters[name] = v
	}
	for name, v := range d.Gauges {
		full.Gauges[name] = v
	}
	for name, h := range d.Histograms {
		full.Histograms[name] = addHistograms(HistogramSnapshot{}, h)
	}
	for name, v := range s.Counters {
		full.Counters[name] += v
	}
	for name, v := range s.Gauges {
		full.Gauges[name] = v
	}
	for name, h := range s.Histograms {
		full.Histograms[name] = addHistograms(full.Histograms[name], h)
	}

	// a name is stable in dst if dst has it stable, or src does and dst
	// does not have it at all
	dStable, sStable := names(dst.StableSnapshot()), names(src.StableSnapshot())
	dAll := names(d)
	isStable := func(name string) bool {
		if dAll[name] {
			return dStable[name]
		}
		return sStable[name]
	}
	stable = Snapshot{Counters: map[string]int64{}, Gauges: map[string]int64{}, Histograms: map[string]HistogramSnapshot{}}
	for name, v := range full.Counters {
		if isStable(name) {
			stable.Counters[name] = v
		}
	}
	for name, v := range full.Gauges {
		if isStable(name) {
			stable.Gauges[name] = v
		}
	}
	for name, h := range full.Histograms {
		if isStable(name) {
			stable.Histograms[name] = h
		}
	}
	return full, stable
}

// names is the set of metric names a snapshot carries.
func names(s Snapshot) map[string]bool {
	set := map[string]bool{}
	for name := range s.Counters {
		set[name] = true
	}
	for name := range s.Gauges {
		set[name] = true
	}
	for name := range s.Histograms {
		set[name] = true
	}
	return set
}

// addHistograms sums two histogram snapshots bucket by bound, in bound
// order with the overflow bucket (LeUS -1) last, and leaves the
// quantiles zero.
func addHistograms(a, b HistogramSnapshot) HistogramSnapshot {
	counts := map[int64]int64{}
	for _, bk := range append(append([]HistogramBucket(nil), a.Buckets...), b.Buckets...) {
		counts[bk.LeUS] += bk.Count
	}
	var buckets []HistogramBucket
	for le, n := range counts {
		buckets = append(buckets, HistogramBucket{LeUS: le, Count: n})
	}
	order := func(le int64) uint64 { return uint64(le) } // -1 sorts last
	sort.Slice(buckets, func(i, j int) bool { return order(buckets[i].LeUS) < order(buckets[j].LeUS) })
	return HistogramSnapshot{Count: a.Count + b.Count, SumNS: a.SumNS + b.SumNS, MaxNS: max(a.MaxNS, b.MaxNS), Buckets: buckets}
}

// withoutQuantiles zeroes every histogram's quantiles, which
// mergeSnapshots does not derive.
func withoutQuantiles(s Snapshot) Snapshot {
	for name, h := range s.Histograms {
		h.P50NS, h.P90NS, h.P99NS = 0, 0, 0
		s.Histograms[name] = h
	}
	return s
}

// randomRegistry fills a registry from rng: counters, gauges and
// histograms under a few shared names, each stable or volatile at random,
// histograms observed from sub-microsecond to past the overflow bound (and
// some registered but never observed).
func randomRegistry(rng *rand.Rand) *Registry {
	r := New()
	for i := rng.IntN(16); i > 0; i-- {
		name := fmt.Sprint(rng.IntN(6))
		var opts []Option
		if rng.IntN(2) == 0 {
			opts = append(opts, Volatile())
		}
		switch rng.IntN(3) {
		case 0:
			r.Counter("c"+name, opts...).Add(rng.Int64N(1000))
		case 1:
			r.Gauge("g"+name, opts...).Set(rng.Int64N(1000) - 500)
		default:
			h := r.Histogram("h"+name, opts...)
			for n := rng.IntN(6); n > 0; n-- {
				d := time.Duration(1) << rng.IntN(38) // up to ≈ 137 s
				h.Observe(d + time.Duration(rng.Int64N(int64(d))))
			}
		}
	}
	return r
}

// TestMergeMatchesReference: on random registries, Merge leaves the
// destination with the full and stable snapshots mergeSnapshots sums.
func TestMergeMatchesReference(t *testing.T) {
	overflow := false
	for seed := uint64(0); seed < 300; seed++ {
		build := func(salt uint64) *Registry { return randomRegistry(rand.New(rand.NewPCG(seed, salt))) }
		got, src := build(1), build(2)
		wantFull, wantStable := mergeSnapshots(got, src)
		got.Merge(src)
		if g := withoutQuantiles(got.Snapshot()); !reflect.DeepEqual(g, wantFull) {
			t.Fatalf("seed %d: Snapshot after Merge\n%+v\nwant\n%+v", seed, g, wantFull)
		}
		if g := withoutQuantiles(got.StableSnapshot()); !reflect.DeepEqual(g, wantStable) {
			t.Fatalf("seed %d: StableSnapshot after Merge\n%+v\nwant\n%+v", seed, g, wantStable)
		}
		for _, h := range got.Snapshot().Histograms {
			for _, b := range h.Buckets {
				overflow = overflow || b.LeUS < 0
			}
		}
	}
	if !overflow {
		t.Error("no merged histogram reached the overflow bucket: the test does not cover it")
	}
}

// TestVolatileExcludedFromStableSnapshot: wall-clock metrics stay out of
// the deterministic snapshot but remain visible in the full one.
func TestVolatileExcludedFromStableSnapshot(t *testing.T) {
	r := New()
	r.Counter("stable").Inc()
	r.Gauge("wall_ns", Volatile()).Set(12345)
	r.Histogram("wall_hist", Volatile()).Observe(time.Second)

	full := r.Snapshot()
	if _, ok := full.Gauges["wall_ns"]; !ok {
		t.Error("full snapshot must include volatile metrics")
	}
	stable := r.StableSnapshot()
	if _, ok := stable.Gauges["wall_ns"]; ok {
		t.Error("stable snapshot must exclude volatile gauges")
	}
	if _, ok := stable.Histograms["wall_hist"]; ok {
		t.Error("stable snapshot must exclude volatile histograms")
	}
	if stable.Counters["stable"] != 1 {
		t.Error("stable snapshot must keep non-volatile metrics")
	}
}

// BenchmarkObserve is the hot-path benchmark; run with -benchmem to see
// the zero-allocation property.
func BenchmarkObserve(b *testing.B) {
	h := New().Histogram("lat")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		d := time.Microsecond
		for pb.Next() {
			h.Observe(d)
			d += 127 * time.Nanosecond
		}
	})
	if h.Snapshot().Count == 0 {
		b.Fatal("no observations")
	}
}

// BenchmarkCounterInc measures the counter hot path.
func BenchmarkCounterInc(b *testing.B) {
	c := New().Counter("n")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

// ExampleRegistry shows the snapshot shape.
func ExampleRegistry() {
	r := New()
	r.Counter("queries").Add(2)
	r.Histogram("latency").Observe(3 * time.Millisecond)
	snap := r.StableSnapshot()
	fmt.Println(snap.Counters["queries"], snap.Histograms["latency"].Count)
	// Output: 2 1
}
