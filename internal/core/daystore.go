// daystore.go defines the DayStore interface: the pipeline's only
// day-access surface, and exactly the three reads the join and the
// analysis accessors make — each a point read keyed by NSSet and day (or
// window). Two backends implement it with methods they already have, no
// adaptor in between:
//
//   - *nsset.Aggregator, the live in-memory day tables (rows indexed by
//     dense NSSet ID; the Key is looked up once per read), used when a run
//     persists nothing;
//   - *daystore.Set (internal/daystore, attached WithDayStore), mmap-backed
//     views of sealed per-day column files, which is what lets ≥1M-domain
//     sweeps join with flat RSS.
//
// The contract both backends pin (enforced by the observation-equivalence
// property test in internal/daystore and TestJoinParityColumnar):
//
//   - Baseline and Window return nil exactly when nothing was measured;
//   - DayWindows(k, d) is sorted ascending by window, and the
//     *WindowMetrics / *DayBaseline values are read-only aggregates whose
//     integer fields round-trip exactly — Eq. 1 float math stays
//     byte-identical across backends.
package core

import (
	"dnsddos/internal/clock"
	"dnsddos/internal/nsset"
)

// DayStore is the read-only day-snapshot surface the join consumes.
// Implementations must be safe for concurrent readers.
type DayStore interface {
	// Baseline returns k's aggregate of day d, or nil if k was not
	// measured that day. The join passes a *resolved* measurable day
	// (quarantine walk already applied). The result is read-only.
	Baseline(k nsset.Key, d clock.Day) *nsset.DayBaseline
	// DayWindows returns k's measured windows of calendar day d, sorted
	// ascending by window; the slice and its values are read-only. An
	// NSSet or day never measured yields an empty slice.
	DayWindows(k nsset.Key, d clock.Day) []*nsset.WindowMetrics
	// Window is the point probe: metrics for (k, w), or nil.
	Window(k nsset.Key, w clock.Window) *nsset.WindowMetrics
}

// The live aggregator is the in-memory DayStore and the reference the
// columnar path must be observation-equivalent to. Reads alias its live
// day tables and never write to them, so a filled aggregator serves any
// number of readers; it must not be read while it is being mutated.
var _ DayStore = (*nsset.Aggregator)(nil)
