package obs

import (
	"fmt"
	"math/rand/v2"
	"reflect"
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
	if got := h.Max(); got != wantMax {
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
	// p50 lands in the bucket covering 500ms: (256ms, 512ms] → upper
	// bound 2^19µs ≈ 524ms
	if p50 := h.Quantile(0.5); p50 < 500*time.Millisecond || p50 > 550*time.Millisecond {
		t.Errorf("p50 = %v, want ≈512ms (bucket upper bound)", p50)
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
}

// mergeReference is Merge's former body, the oracle the
// ImportSnapshot-based Merge is held to: copy src metric by metric under
// its lock, then fold each into r with src's volatility.
func mergeReference(r, src *Registry) {
	src.mu.Lock()
	counters := make(map[string]int64, len(src.counters))
	for name, c := range src.counters {
		counters[name] = c.Load()
	}
	gauges := make(map[string]int64, len(src.gauges))
	for name, g := range src.gauges {
		gauges[name] = g.Load()
	}
	hists := make(map[string]histState, len(src.hists))
	for name, h := range src.hists {
		hists[name] = h.state()
	}
	meta := make(map[string]metricMeta, len(src.meta))
	for name, m := range src.meta {
		meta[name] = m
	}
	src.mu.Unlock()

	opts := func(name string) []Option {
		if meta[name].volatile {
			return []Option{Volatile()}
		}
		return nil
	}
	for name, v := range counters {
		r.Counter(name, opts(name)...).Add(v)
	}
	for name, v := range gauges {
		r.Gauge(name, opts(name)...).Set(v)
	}
	for name, st := range hists {
		r.Histogram(name, opts(name)...).merge(st)
	}
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
// destination with the same full and stable snapshots as mergeReference.
func TestMergeMatchesReference(t *testing.T) {
	overflow := false
	for seed := uint64(0); seed < 300; seed++ {
		build := func(salt uint64) *Registry { return randomRegistry(rand.New(rand.NewPCG(seed, salt))) }
		got, want, src := build(1), build(1), build(2)
		got.Merge(src)
		mergeReference(want, src)
		if g, w := got.Snapshot(), want.Snapshot(); !reflect.DeepEqual(g, w) {
			t.Fatalf("seed %d: Snapshot after Merge\n%+v\nwant\n%+v", seed, g, w)
		}
		if g, w := got.StableSnapshot(), want.StableSnapshot(); !reflect.DeepEqual(g, w) {
			t.Fatalf("seed %d: StableSnapshot after Merge\n%+v\nwant\n%+v", seed, g, w)
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
	if h.Count() == 0 {
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
