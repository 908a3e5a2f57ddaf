package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// histogram.go implements the lock-free fixed-bucket latency histogram.
//
// Buckets are log-spaced in powers of two of microseconds: bucket 0
// holds sub-microsecond observations, bucket i (1 ≤ i < NumBuckets-1)
// holds durations in [2^(i-1), 2^i) µs, and the last bucket is the
// overflow (≥ ~67 s). The bucket index is a single bits.Len64 — no
// floating point, no locks, no allocation — so Observe is cheap enough
// for the authserver's per-datagram hot path, and bucket counts are
// plain atomic adds, which makes concurrent observation commutative:
// the same multiset of observations yields the same bucket state
// regardless of interleaving. That commutativity is what lets the study
// pipeline merge per-shard histograms in completion order and still
// produce byte-identical snapshots across seeded runs.

// NumBuckets is the fixed bucket count: sub-µs, 26 doubling buckets up
// to 2^26 µs (≈ 67 s), and overflow.
const NumBuckets = 28

// Histogram is a lock-free latency histogram. The zero value is ready
// to use; all methods are nil-receiver-safe.
type Histogram struct {
	buckets [NumBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	max     atomic.Int64 // nanoseconds
}

// bucketIndex maps a duration to its bucket. Negative durations clamp
// to bucket 0.
func bucketIndex(d time.Duration) int {
	if d <= 0 {
		return 0
	}
	i := bits.Len64(uint64(d / time.Microsecond))
	if i >= NumBuckets {
		return NumBuckets - 1
	}
	return i
}

// BucketUpperBound returns the exclusive upper bound of bucket i; the
// overflow bucket returns a negative duration (unbounded).
func BucketUpperBound(i int) time.Duration {
	if i >= NumBuckets-1 {
		return -1
	}
	return time.Microsecond << i
}

// Observe records one duration. It is allocation-free and safe for
// concurrent use.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	h.buckets[bucketIndex(d)].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
	for {
		cur := h.max.Load()
		if int64(d) <= cur {
			return
		}
		if h.max.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Max returns the largest observed duration.
func (h *Histogram) Max() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.max.Load())
}

// Quantile estimates the q-quantile (0 < q ≤ 1) from the bucket counts:
// the upper bound of the bucket containing the ⌈q·count⌉-th observation,
// clamped to the exact observed max. Returns 0 with no observations.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil {
		return 0
	}
	return h.state().quantile(q)
}

// histState is a consistent-enough copy of the histogram internals used
// for snapshots and merges. Loads are per-field atomic; a histogram
// observed concurrently may show count transiently ahead of bucket sums.
type histState struct {
	buckets [NumBuckets]int64
	count   int64
	sum     int64
	max     int64
}

func (h *Histogram) state() histState {
	var st histState
	if h == nil {
		return st
	}
	for i := range st.buckets {
		st.buckets[i] = h.buckets[i].Load()
	}
	st.count = h.count.Load()
	st.sum = h.sum.Load()
	st.max = h.max.Load()
	return st
}

// merge folds a copied state into h.
func (h *Histogram) merge(st histState) {
	if h == nil {
		return
	}
	for i, n := range st.buckets {
		if n != 0 {
			h.buckets[i].Add(n)
		}
	}
	h.count.Add(st.count)
	h.sum.Add(st.sum)
	for {
		cur := h.max.Load()
		if st.max <= cur {
			return
		}
		if h.max.CompareAndSwap(cur, st.max) {
			return
		}
	}
}

// LocalHistogram is a histogram's state in plain integers: the same
// buckets and totals as a Histogram, for one goroutine that observes many
// durations and hands them over in one step (Histogram.Fold) instead of
// paying four atomic operations each. The zero value is empty.
type LocalHistogram struct{ st histState }

// Observe records one duration, as Histogram.Observe does. Not safe for
// concurrent use.
func (l *LocalHistogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	l.st.buckets[bucketIndex(d)]++
	l.st.count++
	l.st.sum += int64(d)
	l.st.max = max(l.st.max, int64(d))
}

// Fold adds everything l observed to h: the state is what observing each
// duration on h itself would have left.
func (h *Histogram) Fold(l *LocalHistogram) { h.merge(l.st) }

func (st histState) quantile(q float64) time.Duration {
	if st.count == 0 || q <= 0 {
		return 0
	}
	rank := int64(q*float64(st.count) + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > st.count {
		rank = st.count
	}
	var cum int64
	for i, n := range st.buckets {
		cum += n
		if cum >= rank {
			ub := BucketUpperBound(i)
			if ub < 0 || ub > time.Duration(st.max) {
				return time.Duration(st.max)
			}
			return ub
		}
	}
	return time.Duration(st.max)
}

// importSnapshot folds a HistogramSnapshot back into the histogram —
// the inverse of Snapshot for the non-empty buckets. Buckets are matched
// by their upper bound; a bound no bucket layout of this build produces
// lands in the overflow bucket rather than being dropped, so totals stay
// exact even across layout skew.
func (h *Histogram) importSnapshot(s HistogramSnapshot) {
	if h == nil {
		return
	}
	var st histState
	st.count = s.Count
	st.sum = s.SumNS
	st.max = s.MaxNS
	for _, b := range s.Buckets {
		st.buckets[bucketForBound(b.LeUS)] += b.Count
	}
	h.merge(st)
}

// bucketForBound maps a snapshot bucket bound (µs, -1 = overflow) back to
// its bucket index.
func bucketForBound(leUS int64) int {
	for i := 0; i < NumBuckets-1; i++ {
		if int64(BucketUpperBound(i)/time.Microsecond) == leUS {
			return i
		}
	}
	return NumBuckets - 1
}

// HistogramBucket is one non-empty bucket in a snapshot. LeUS is the
// exclusive upper bound in microseconds; -1 marks the overflow bucket.
type HistogramBucket struct {
	LeUS  int64 `json:"le_us"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is the deterministic JSON form of a histogram:
// totals, derived quantiles, and the non-empty buckets in bound order.
type HistogramSnapshot struct {
	Count   int64             `json:"count"`
	SumNS   int64             `json:"sum_ns"`
	MaxNS   int64             `json:"max_ns"`
	P50NS   int64             `json:"p50_ns"`
	P90NS   int64             `json:"p90_ns"`
	P99NS   int64             `json:"p99_ns"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// Snapshot captures the histogram. Concurrent observers may leave the
// totals transiently ahead of the bucket sums; quiesce writers first
// when exactness matters (tests do).
func (h *Histogram) Snapshot() HistogramSnapshot {
	st := h.state()
	s := HistogramSnapshot{
		Count: st.count,
		SumNS: st.sum,
		MaxNS: st.max,
		P50NS: int64(st.quantile(0.50)),
		P90NS: int64(st.quantile(0.90)),
		P99NS: int64(st.quantile(0.99)),
	}
	for i, n := range st.buckets {
		if n == 0 {
			continue
		}
		le := int64(-1)
		if ub := BucketUpperBound(i); ub >= 0 {
			le = int64(ub / time.Microsecond)
		}
		s.Buckets = append(s.Buckets, HistogramBucket{LeUS: le, Count: n})
	}
	return s
}
