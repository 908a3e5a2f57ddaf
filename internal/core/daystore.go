// daystore.go defines the DayStore interface: the pipeline's only
// day-access surface, and exactly the three reads the join and the
// analysis accessors make. Two backends implement it:
//
//   - the in-memory one (NewAggregatorDayStore) serves a live
//     nsset.Aggregator's table, used when a run persists nothing;
//   - the columnar one (internal/daystore.Set, attached WithDayStore)
//     serves mmap-backed views of sealed per-day column files, which is
//     what lets ≥1M-domain sweeps join with flat RSS.
//
// The contract both backends pin (enforced by the observation-equivalence
// property test in internal/daystore and TestJoinParityColumnar):
//
//   - Window and BaselineView.Baseline return nil exactly when nothing
//     was measured;
//   - DayWindows(k, d) is sorted ascending by window, and the
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

// DayStore is the read-only day-snapshot surface the join consumes.
// Implementations must be safe for concurrent readers.
type DayStore interface {
	// Baselines returns day d's baseline view (empty view, never nil,
	// when nothing was measured that day).
	Baselines(d clock.Day) BaselineView
	// DayWindows returns k's measured windows of calendar day d, sorted
	// ascending by window; the slice and its values are read-only. An
	// NSSet or day never measured yields an empty slice.
	DayWindows(k nsset.Key, d clock.Day) []*nsset.WindowMetrics
	// Window is the point probe: metrics for (k, w), or nil.
	Window(k nsset.Key, w clock.Window) *nsset.WindowMetrics
}

// aggDayStore adapts the live in-memory nsset.Aggregator to DayStore:
// DayWindows and Window are the aggregator's own methods, and it is the
// reference the columnar path must be observation-equivalent to. Reads
// alias the aggregator's live table; the store must not be used while the
// aggregator is being mutated.
type aggDayStore struct {
	*nsset.Aggregator
}

// NewAggregatorDayStore wraps a live aggregator as a DayStore.
func NewAggregatorDayStore(agg *nsset.Aggregator) DayStore {
	return aggDayStore{agg}
}

// mapBaselineView is a plain map baseline index (Aggregator.DayBaselines).
type mapBaselineView map[nsset.Key]*nsset.DayBaseline

func (m mapBaselineView) Baseline(k nsset.Key) *nsset.DayBaseline { return m[k] }

func (s aggDayStore) Baselines(d clock.Day) BaselineView {
	return mapBaselineView(s.DayBaselines(d))
}
