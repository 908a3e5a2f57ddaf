// daystore.go defines the DayStore interface: the pipeline's only
// day-access surface, and exactly the two reads the join and the analysis
// accessors make — the Eq. 1 denominator of one (NSSet, day) by value, and
// one ranged read of an NSSet's windows appended to the caller's buffer.
// Neither copies anything it is not asked for, so a warm caller reads
// without allocating. Two backends implement it with methods they already
// have, no adaptor in between:
//
//   - *daystore.Set (internal/daystore), the sealed days every study run
//     joins: mmap-backed views of per-day column files, which is what
//     lets ≥1M-domain sweeps join with flat RSS, or, for a run that
//     persists nothing, the same images held in memory;
//   - *nsset.Aggregator, the live day tables (rows indexed by dense NSSet
//     ID; the Key is looked up once per day read): the reference the
//     sealed days are held to in tests, and the empty default.
//
// The contract both backends pin (enforced by the observation-equivalence
// property test in internal/daystore and TestJoinParityColumnar):
//
//   - Baseline reports false exactly when nothing was measured;
//   - AppendWindows appends ascending by window, across days, and only
//     windows inside [from, to]; dst's existing elements are left intact;
//   - integer fields round-trip exactly — Eq. 1 float math stays
//     byte-identical across backends.
//
// Refusal: the reads have no error result. Days in memory cannot fail,
// and an error on a by-value hot read would be paid by every caller for
// the day files that can. A backend that finds a day unreadable at
// first access (daystore.Set: a corrupt or truncated day file) refuses by
// panicking on the reading goroutine with a typed error —
// errors.Is(err, daystore.ErrCorrupt) — and goes on refusing that day.
// That is the contract, and every production caller holds it:
//
//   - the join reads on its caller's goroutine, so the refusal panics
//     out of EventsContext unchanged (TestStoreRefusalReachesCaller);
//   - study.RunContext joins over days it has just sealed or re-sealed
//     (daystore.Set.Put validates every image before it publishes or
//     keeps it: daystore.TestPutMatchesSeal), or on resume
//     hash-verified against their journaled references, and does not
//     recover;
//   - SeriesFor reads on its caller's goroutine and lets the panic through
//     (report.TestSeriesRefusesTamperedDay), so cmd/report dies printing
//     the typed error, exit status 2, the entry's title its last output.
//
// A caller that wants an error instead runs daystore.Set.Verify first.
package core

import (
	"dnsddos/internal/clock"
	"dnsddos/internal/nsset"
)

// DayStore is the read-only day-snapshot surface the join consumes.
// Implementations must be safe for concurrent readers.
type DayStore interface {
	// Baseline returns k's aggregate of day d; false if k was not
	// measured that day. The join passes a *resolved* measurable day
	// (quarantine walk already applied).
	Baseline(k nsset.Key, d clock.Day) (nsset.DayBaseline, bool)
	// AppendWindows appends k's measured windows w with from ≤ w ≤ to to
	// dst, ascending, crossing calendar days, and returns the extended
	// slice. An NSSet or span never measured, or from > to, appends
	// nothing.
	AppendWindows(dst []nsset.WindowMetrics, k nsset.Key, from, to clock.Window) []nsset.WindowMetrics
}

// The live aggregator is the reference the columnar path must be
// observation-equivalent to. Reads copy out of its
// live day tables and never write to them, so a filled aggregator serves
// any number of readers; it must not be read while it is being mutated.
var _ DayStore = (*nsset.Aggregator)(nil)
