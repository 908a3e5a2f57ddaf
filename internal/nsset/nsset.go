// Package nsset implements the paper's NSSet abstraction (§4.1): the set of
// authoritative nameserver IPv4 addresses shared by one or more domains.
// Because OpenINTEL's agnostic resolver does not reveal which nameserver
// answered, performance metrics are aggregated per NSSet in 5-minute
// windows, and the attack-impact metric (Eq. 1) compares a window's average
// RTT against the previous day's average.
package nsset

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"
	"time"

	"dnsddos/internal/clock"
	"dnsddos/internal/netx"
)

// Key uniquely identifies an NSSet: the big-endian concatenation of its
// sorted member addresses. It is a compact, comparable map key.
type Key string

// KeyOf builds a Key from addresses (sorted and deduplicated internally).
func KeyOf(addrs []netx.Addr) Key {
	s := make([]netx.Addr, len(addrs))
	copy(s, addrs)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	buf := make([]byte, 0, 4*len(s))
	var prev netx.Addr
	for i, a := range s {
		if i > 0 && a == prev {
			continue
		}
		prev = a
		buf = binary.BigEndian.AppendUint32(buf, uint32(a))
	}
	return Key(buf)
}

// Addrs decodes the member addresses.
func (k Key) Addrs() []netx.Addr {
	out := make([]netx.Addr, 0, len(k)/4)
	for i := 0; i+4 <= len(k); i += 4 {
		out = append(out, netx.Addr(binary.BigEndian.Uint32([]byte(k[i:i+4]))))
	}
	return out
}

// Size returns the number of member nameserver addresses.
func (k Key) Size() int { return len(k) / 4 }

// Contains reports whether the set includes addr.
func (k Key) Contains(addr netx.Addr) bool {
	for _, a := range k.Addrs() {
		if a == addr {
			return true
		}
	}
	return false
}

// String renders the member addresses, e.g. "{192.0.2.1, 192.0.2.2}".
func (k Key) String() string {
	addrs := k.Addrs()
	parts := make([]string, len(addrs))
	for i, a := range addrs {
		parts[i] = a.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Diversity summarizes the §6.6 resilience dimensions of an NSSet.
type Diversity struct {
	NumNS       int
	NumASNs     int
	NumPrefixes int // distinct /24s
	NumAnycast  int // members whose /24 matches the anycast census
}

// AnycastClass classifies the anycast adoption of the set (Fig. 11 legend:
// unicast / partial anycast / anycast).
type AnycastClass int

// Anycast classes.
const (
	Unicast AnycastClass = iota
	PartialAnycast
	FullAnycast
)

// String renders the class label used in Figure 11.
func (c AnycastClass) String() string {
	switch c {
	case Unicast:
		return "unicast"
	case PartialAnycast:
		return "partial-anycast"
	case FullAnycast:
		return "anycast"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Class derives the AnycastClass from the diversity counters.
func (d Diversity) Class() AnycastClass {
	switch {
	case d.NumAnycast == 0:
		return Unicast
	case d.NumAnycast < d.NumNS:
		return PartialAnycast
	default:
		return FullAnycast
	}
}

// QueryStatus is the outcome of one measurement query, matching the
// OpenINTEL response status codes the paper uses (OK, SERVFAIL, TIMEOUT).
type QueryStatus int

// Statuses.
const (
	StatusOK QueryStatus = iota
	StatusTimeout
	StatusServFail
	StatusOtherError
)

// String renders the status.
func (s QueryStatus) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusTimeout:
		return "TIMEOUT"
	case StatusServFail:
		return "SERVFAIL"
	default:
		return "ERROR"
	}
}

// WindowMetrics aggregates the measurements of one NSSet in one 5-minute
// window (§4.1: domain count, average/min/max RTT, error counts).
type WindowMetrics struct {
	Window    clock.Window
	Domains   int // domains measured (resolved or failed) in the window
	OKCount   int
	Timeouts  int
	ServFails int
	SumRTT    time.Duration // over OK responses
	MinRTT    time.Duration
	MaxRTT    time.Duration
}

// AvgRTT returns the mean RTT over successful queries in the window.
func (m *WindowMetrics) AvgRTT() time.Duration {
	if m.OKCount == 0 {
		return 0
	}
	return m.SumRTT / time.Duration(m.OKCount)
}

// FailureRate returns the fraction of measured domains that failed to
// resolve (timeout or SERVFAIL), the y-axis of Figure 7.
func (m *WindowMetrics) FailureRate() float64 {
	if m.Domains == 0 {
		return 0
	}
	return float64(m.Timeouts+m.ServFails) / float64(m.Domains)
}

// addSample folds one query result into the window.
func (m *WindowMetrics) addSample(status QueryStatus, rtt time.Duration) {
	m.Domains++
	switch status {
	case StatusOK:
		m.OKCount++
		m.SumRTT += rtt
		if m.MinRTT == 0 || rtt < m.MinRTT {
			m.MinRTT = rtt
		}
		if rtt > m.MaxRTT {
			m.MaxRTT = rtt
		}
	case StatusTimeout:
		m.Timeouts++
	case StatusServFail:
		m.ServFails++
	default:
		m.ServFails++
	}
}

// merge folds another window's totals into m; commutative and
// associative, so shard merge order never changes the result.
func (m *WindowMetrics) merge(o *WindowMetrics) {
	m.Domains += o.Domains
	m.OKCount += o.OKCount
	m.Timeouts += o.Timeouts
	m.ServFails += o.ServFails
	m.SumRTT += o.SumRTT
	if m.MinRTT == 0 || (o.MinRTT != 0 && o.MinRTT < m.MinRTT) {
		m.MinRTT = o.MinRTT
	}
	if o.MaxRTT > m.MaxRTT {
		m.MaxRTT = o.MaxRTT
	}
}

// DayBaseline is the per-day aggregate used as the Eq. 1 denominator.
type DayBaseline struct {
	Day     clock.Day
	OKCount int
	SumRTT  time.Duration
	Domains int
}

// AvgRTT returns the day's mean successful-query RTT.
func (b *DayBaseline) AvgRTT() time.Duration {
	if b.OKCount == 0 {
		return 0
	}
	return b.SumRTT / time.Duration(b.OKCount)
}

// merge folds another baseline's totals into b.
func (b *DayBaseline) merge(o *DayBaseline) {
	b.OKCount += o.OKCount
	b.SumRTT += o.SumRTT
	b.Domains += o.Domains
}

// Aggregator folds per-query measurement samples into per-NSSet window
// metrics and day baselines. It is not safe for concurrent use; the
// measurement engine owns one per run (shard across days and Merge for
// parallel sweeps).
type Aggregator struct {
	windows   map[Key]map[clock.Window]*WindowMetrics
	baselines map[Key]map[clock.Day]*DayBaseline
	// span tracks, per NSSet, the [min, max] retained-window range, so a
	// Series consumer can clamp a probe loop to windows that can exist
	// instead of probing an attack's whole span (the join engine's fast
	// path).
	span map[Key]windowSpan
	// daywin buckets each NSSet's retained windows by calendar day.
	// Measurements are sparse within an attack span (each domain is swept
	// once a day), so iterating a day's actual windows beats probing
	// every 5-minute window of the span — the join engine's inner loop.
	daywin map[Key]map[clock.Day][]*WindowMetrics
	// filter, when set, limits per-window metric retention; day
	// baselines are always kept. Long longitudinal runs set it to the
	// attack windows (plus margins) to bound memory, matching how the
	// paper's Hadoop pipeline only materializes joined windows.
	filter func(clock.Window) bool
}

// NewAggregator returns an empty aggregator.
func NewAggregator() *Aggregator {
	return &Aggregator{
		windows:   make(map[Key]map[clock.Window]*WindowMetrics),
		baselines: make(map[Key]map[clock.Day]*DayBaseline),
		span:      make(map[Key]windowSpan),
		daywin:    make(map[Key]map[clock.Day][]*WindowMetrics),
	}
}

// SetWindowFilter restricts which windows retain per-window metrics. Nil
// (the default) keeps everything.
func (a *Aggregator) SetWindowFilter(f func(clock.Window) bool) { a.filter = f }

// Add folds one query observation for the NSSet k at time t.
func (a *Aggregator) Add(k Key, t time.Time, status QueryStatus, rtt time.Duration) {
	w := clock.WindowOf(t)
	if a.filter == nil || a.filter(w) {
		wm := a.windows[k]
		if wm == nil {
			wm = make(map[clock.Window]*WindowMetrics)
			a.windows[k] = wm
		}
		m := wm[w]
		if m == nil {
			m = &WindowMetrics{Window: w}
			wm[w] = m
			a.noteWindow(k, m)
		}
		m.addSample(status, rtt)
	}

	d := clock.DayOf(t)
	bm := a.baselines[k]
	if bm == nil {
		bm = make(map[clock.Day]*DayBaseline)
		a.baselines[k] = bm
	}
	b := bm[d]
	if b == nil {
		b = &DayBaseline{Day: d}
		bm[d] = b
	}
	b.Domains++
	if status == StatusOK {
		b.OKCount++
		b.SumRTT += rtt
	}
}

// Merge folds another aggregator's contents into a. Use after sharded
// parallel sweeps; sample order within a window does not matter for any
// retained statistic.
func (a *Aggregator) Merge(o *Aggregator) {
	for k, wm := range o.windows {
		dst := a.windows[k]
		if dst == nil {
			dst = make(map[clock.Window]*WindowMetrics, len(wm))
			a.windows[k] = dst
		}
		for w, m := range wm {
			t := dst[w]
			if t == nil {
				cp := *m
				dst[w] = &cp
				a.noteWindow(k, &cp)
				continue
			}
			t.merge(m)
		}
	}
	for k, bm := range o.baselines {
		dst := a.baselines[k]
		if dst == nil {
			dst = make(map[clock.Day]*DayBaseline, len(bm))
			a.baselines[k] = dst
		}
		for d, b := range bm {
			t := dst[d]
			if t == nil {
				cp := *b
				dst[d] = &cp
				continue
			}
			t.merge(b)
		}
	}
}

// Window returns the metrics for (k, w), or nil if nothing was measured.
func (a *Aggregator) Window(k Key, w clock.Window) *WindowMetrics {
	return a.windows[k][w]
}

// Series is a read-only view of one NSSet's per-window metrics. The join
// engine fetches it once per (attack, NSSet) pair so the inner window
// loop pays one cheap int-keyed lookup per window instead of re-hashing
// the (string-keyed) NSSet on every probe. The view aliases the
// aggregator's live maps; it must not be used while the aggregator is
// being mutated.
type Series struct {
	m      map[clock.Window]*WindowMetrics
	daywin map[clock.Day][]*WindowMetrics
	span   windowSpan
}

// windowSpan is an inclusive [min, max] window range; min > max means
// empty.
type windowSpan struct{ min, max clock.Window }

// noteWindow records a fresh window insertion: it widens k's
// retained-window span and buckets the metrics pointer under its
// calendar day. Called wherever a new *WindowMetrics enters the
// aggregator (Add, Merge).
func (a *Aggregator) noteWindow(k Key, m *WindowMetrics) {
	w := m.Window
	if s, ok := a.span[k]; !ok {
		a.span[k] = windowSpan{min: w, max: w}
	} else {
		if w < s.min {
			s.min = w
		}
		if w > s.max {
			s.max = w
		}
		a.span[k] = s
	}
	dm := a.daywin[k]
	if dm == nil {
		dm = make(map[clock.Day][]*WindowMetrics)
		a.daywin[k] = dm
	}
	// Keep each day bucket sorted by window so consumers can binary-search
	// a span. Measurements arrive in sweep (time) order, so this insertion
	// sort is almost always a plain append.
	d := w.Day()
	lst := append(dm[d], m)
	for i := len(lst) - 1; i > 0 && lst[i-1].Window > w; i-- {
		lst[i-1], lst[i] = lst[i], lst[i-1]
	}
	dm[d] = lst
}

// Series returns the window-metrics view for k. The zero view (NSSet
// never measured) is valid: At returns nil for every window.
func (a *Aggregator) Series(k Key) Series {
	sp, ok := a.span[k]
	if !ok {
		sp = windowSpan{min: 1, max: 0} // empty
	}
	return Series{m: a.windows[k], daywin: a.daywin[k], span: sp}
}

// At returns the metrics for window w, or nil if nothing was measured.
func (s Series) At(w clock.Window) *WindowMetrics { return s.m[w] }

// Len returns the number of measured windows in the series.
func (s Series) Len() int { return len(s.m) }

// Span returns the series' inclusive retained-window range. An NSSet
// with no retained windows returns min > max (the empty span), matching
// Clamp's empty-intersection convention.
func (s Series) Span() (min, max clock.Window) { return s.span.min, s.span.max }

// Clamp intersects [from, to] with the series' retained-window span. A
// probe loop over the clamped range visits every window that can have
// metrics; an empty intersection returns from > to.
func (s Series) Clamp(from, to clock.Window) (clock.Window, clock.Window) {
	if from < s.span.min {
		from = s.span.min
	}
	if to > s.span.max {
		to = s.span.max
	}
	return from, to
}

// DayWindows returns the measured windows of calendar day d, sorted
// ascending by window. The slice is shared; treat it as read-only.
// Iterating (or binary-searching) it beats probing At window by window
// when measurements are sparse within the probed span.
func (s Series) DayWindows(d clock.Day) []*WindowMetrics { return s.daywin[d] }

// DayBaselines collects the day-d baseline of every NSSet measured on
// that day. It is the build step of the join engine's per-day snapshot
// index (O(#NSSets), amortized by the LRU day cache); the returned map is
// freshly allocated, but the *DayBaseline values alias the aggregator's
// live aggregates and must be treated as read-only.
func (a *Aggregator) DayBaselines(d clock.Day) map[Key]*DayBaseline {
	out := make(map[Key]*DayBaseline)
	for k, bm := range a.baselines {
		if b, ok := bm[d]; ok {
			out[k] = b
		}
	}
	return out
}

// Baseline returns the day aggregate for (k, d), or nil.
func (a *Aggregator) Baseline(k Key, d clock.Day) *DayBaseline {
	return a.baselines[k][d]
}

// Keys returns all NSSets with any measurements, in deterministic order.
func (a *Aggregator) Keys() []Key {
	out := make([]Key, 0, len(a.windows))
	for k := range a.windows {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Days returns every day with any baseline measurements, in ascending
// order.
func (a *Aggregator) Days() []clock.Day {
	seen := make(map[clock.Day]struct{})
	for _, bm := range a.baselines {
		for d := range bm {
			seen[d] = struct{}{}
		}
	}
	out := make([]clock.Day, 0, len(seen))
	for d := range seen {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Windows returns the measured windows for an NSSet in ascending order.
func (a *Aggregator) Windows(k Key) []*WindowMetrics {
	wm := a.windows[k]
	out := make([]*WindowMetrics, 0, len(wm))
	for _, m := range wm {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Window < out[j].Window })
	return out
}

// ImpactOnRTT computes Eq. 1 for NSSet k in window w:
//
//	Impact_on_RTT = AvgRTT(5 min window) / AvgRTT(day before)
//
// The boolean is false when either term is missing (no measurements in the
// window, or no baseline the previous day).
func (a *Aggregator) ImpactOnRTT(k Key, w clock.Window) (float64, bool) {
	m := a.Window(k, w)
	if m == nil || m.OKCount == 0 {
		return 0, false
	}
	b := a.Baseline(k, w.Day().Prev())
	if b == nil || b.OKCount == 0 {
		return 0, false
	}
	base := b.AvgRTT()
	if base <= 0 {
		return 0, false
	}
	return float64(m.AvgRTT()) / float64(base), true
}

// ImpactVsDay computes the Eq. 1 variant with an arbitrary baseline day
// (used by the baseline-window ablation, DESIGN §6.2).
func (a *Aggregator) ImpactVsDay(k Key, w clock.Window, baseline clock.Day) (float64, bool) {
	m := a.Window(k, w)
	if m == nil || m.OKCount == 0 {
		return 0, false
	}
	b := a.Baseline(k, baseline)
	if b == nil || b.OKCount == 0 {
		return 0, false
	}
	base := b.AvgRTT()
	if base <= 0 {
		return 0, false
	}
	return float64(m.AvgRTT()) / float64(base), true
}
