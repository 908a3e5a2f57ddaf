// daystore.go defines the DayStore interface: the pipeline's only
// day-access surface. The join engine (join.go), the analysis accessors,
// and every stream/distjoin consumer read per-day NSSet aggregates
// exclusively through it, so the backing representation is swappable:
//
//   - the in-memory path (NewAggregatorDayStore, the default) serves the
//     live nsset.Aggregator maps — the historical behaviour;
//   - the columnar path (internal/daystore.Set, attached WithDayStore)
//     serves mmap-backed views of sealed per-day column files, which is
//     what lets ≥1M-domain sweeps join with flat RSS.
//
// The contract both backends pin (enforced by the observation-equivalence
// property test in internal/daystore and TestJoinParityColumnar):
//
//   - Keys() is deterministically sorted ascending;
//   - Window/Baseline return nil exactly when nothing was measured;
//   - Series(k).DayWindows(d) is sorted ascending by window, and the
//     *WindowMetrics / *DayBaseline values are read-only aggregates whose
//     integer fields round-trip exactly — Eq. 1 float math stays
//     byte-identical across backends.
package core

import (
	"dnsddos/internal/clock"
	"dnsddos/internal/nsset"
)

// BaselineView is one day's baseline index: the day-d aggregate of every
// NSSet measured on day d. Views are keyed by *resolved* measurable day
// (quarantine walk already applied), shared read-only across worker
// shards, and memoized in the pipeline's LRU day cache.
type BaselineView interface {
	// Baseline returns the NSSet's day aggregate, or nil if it was not
	// measured that day. The result is read-only.
	Baseline(k nsset.Key) *nsset.DayBaseline
}

// KeySeries is one NSSet's window-metrics view, fetched once per
// (attack, NSSet) pair so the join's inner loop never re-hashes the
// string key.
type KeySeries interface {
	// DayWindows returns the measured windows of calendar day d, sorted
	// ascending by window; the slice and its values are read-only.
	DayWindows(d clock.Day) []*nsset.WindowMetrics
	// Span returns the series' inclusive retained-window range when the
	// backend tracks one (ok true; min > max means no windows). Backends
	// without span tracking return ok false and callers skip the clamp —
	// a pure pruning step, so skipping it never changes results.
	Span() (min, max clock.Window, ok bool)
}

// DayStore is the read-only day-snapshot surface the join consumes.
// Implementations must be safe for concurrent readers.
type DayStore interface {
	// Baselines returns day d's baseline view (empty view, never nil,
	// when nothing was measured that day).
	Baselines(d clock.Day) BaselineView
	// Baseline is the point probe: the day aggregate for (k, d), or nil.
	Baseline(k nsset.Key, d clock.Day) *nsset.DayBaseline
	// Series returns k's window-metrics view; the zero series (NSSet
	// never measured) is valid and empty.
	Series(k nsset.Key) KeySeries
	// Window is the point probe: metrics for (k, w), or nil.
	Window(k nsset.Key, w clock.Window) *nsset.WindowMetrics
	// Keys returns every NSSet with measurements, sorted ascending.
	Keys() []nsset.Key
	// Days returns every day with measurements, sorted ascending.
	Days() []clock.Day
}

// aggDayStore adapts the live in-memory nsset.Aggregator to DayStore —
// the default backend, and the reference the columnar path must be
// observation-equivalent to. Reads alias the aggregator's live maps; like
// nsset.Series, the store must not be used while the aggregator is being
// mutated.
type aggDayStore struct {
	agg *nsset.Aggregator
}

// NewAggregatorDayStore wraps a live aggregator as a DayStore.
func NewAggregatorDayStore(agg *nsset.Aggregator) DayStore {
	return aggDayStore{agg: agg}
}

// mapBaselineView is a plain map baseline index (Aggregator.DayBaselines).
type mapBaselineView map[nsset.Key]*nsset.DayBaseline

func (m mapBaselineView) Baseline(k nsset.Key) *nsset.DayBaseline { return m[k] }

func (s aggDayStore) Baselines(d clock.Day) BaselineView {
	return mapBaselineView(s.agg.DayBaselines(d))
}

func (s aggDayStore) Baseline(k nsset.Key, d clock.Day) *nsset.DayBaseline {
	return s.agg.Baseline(k, d)
}

// aggKeySeries lifts nsset.Series into KeySeries; the aggregator tracks
// spans, so Span always reports ok.
type aggKeySeries struct {
	nsset.Series
}

func (s aggKeySeries) Span() (min, max clock.Window, ok bool) {
	min, max = s.Series.Span()
	return min, max, true
}

func (s aggDayStore) Series(k nsset.Key) KeySeries {
	return aggKeySeries{Series: s.agg.Series(k)}
}

func (s aggDayStore) Window(k nsset.Key, w clock.Window) *nsset.WindowMetrics {
	return s.agg.Window(k, w)
}

func (s aggDayStore) Keys() []nsset.Key { return s.agg.Keys() }

func (s aggDayStore) Days() []clock.Day { return s.agg.Days() }
