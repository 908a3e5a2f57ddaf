// Package nsset implements the paper's NSSet abstraction (§4.1): the set of
// authoritative nameserver IPv4 addresses shared by one or more domains.
// Because OpenINTEL's agnostic resolver does not reveal which nameserver
// answered, performance metrics are aggregated per NSSet in 5-minute
// windows, and the attack-impact metric (Eq. 1) compares a window's average
// RTT against the previous day's average.
package nsset

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
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
	s := slices.Clone(addrs)
	slices.Sort(s)
	return Key(appendKey(make([]byte, 0, 4*len(s)), s))
}

// appendKey appends the key bytes of sorted addresses, each address once.
func appendKey(buf []byte, sorted []netx.Addr) []byte {
	for i, a := range sorted {
		if i == 0 || a != sorted[i-1] {
			buf = binary.BigEndian.AppendUint32(buf, uint32(a))
		}
	}
	return buf
}

// Interner hands out one Key per distinct address set: equal keys from
// one Interner share their bytes, and a set seen before costs no
// allocation. The zero value is ready to use.
type Interner struct {
	keys map[string]Key
}

// KeyOf is the package-level KeyOf, interned. It sorts addrs in place.
func (in *Interner) KeyOf(addrs []netx.Addr) Key {
	slices.Sort(addrs)
	var arr [64]byte // sixteen addresses; a larger set spills by append
	buf := appendKey(arr[:0], addrs)
	k, ok := in.keys[string(buf)]
	if !ok {
		if in.keys == nil {
			in.keys = make(map[string]Key)
		}
		k = Key(buf)
		in.keys[string(k)] = k
	}
	return k
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

// dayRow is one NSSet on one calendar day, the paper's unit of
// measurement and the shape of a sealed day file's key row: the day's
// baseline plus its retained windows in ascending window order.
type dayRow struct {
	base DayBaseline
	wins []*WindowMetrics
}

// windowFor returns r's metrics for w, inserting them in window order
// when new. Samples arrive in sweep (time) order, so the scan from the
// tail ends at once on a hit or an append; a day holds at most 288
// windows, which bounds the rare out-of-order insert.
func (a *Aggregator) windowFor(r *dayRow, w clock.Window) *WindowMetrics {
	i := len(r.wins)
	for i > 0 && r.wins[i-1].Window > w {
		i--
	}
	if i > 0 && r.wins[i-1].Window == w {
		return r.wins[i-1]
	}
	if len(a.slab) == cap(a.slab) {
		a.slab = make([]WindowMetrics, 0, min(max(16, 2*cap(a.slab)), 256))
	}
	a.slab = append(a.slab, WindowMetrics{Window: w})
	m := &a.slab[len(a.slab)-1]
	r.wins = slices.Insert(r.wins, i, m)
	return m
}

// findDay binary-searches an NSSet's ascending day rows; nil when d was
// not measured.
func findDay(rows []*dayRow, d clock.Day) *dayRow {
	i, ok := slices.BinarySearchFunc(rows, d, func(r *dayRow, d clock.Day) int { return cmp.Compare(r.base.Day, d) })
	if !ok {
		return nil
	}
	return rows[i]
}

// Aggregator folds per-query measurement samples into per-NSSet window
// metrics and day baselines. It is not safe for concurrent use; the
// measurement engine owns one per run (shard across days and Merge for
// parallel sweeps).
type Aggregator struct {
	// table is the one layout of measured data: NSSet → its measured days
	// in ascending order. Snapshot and the sealed day file keep the same
	// (key, day, window) ordering, so sealing is a walk, not a re-sort.
	table map[Key][]*dayRow
	// filter, when set, limits per-window metric retention; day
	// baselines are always kept. Long longitudinal runs set it to the
	// attack windows (plus margins) to bound memory, matching how the
	// paper's Hadoop pipeline only materializes joined windows.
	filter func(clock.Window) bool
	// slab is the block windowFor carves new windows from. A full block
	// is replaced, never regrown, so *WindowMetrics already handed out
	// stay valid; blocks double from 16 to 256 entries, so a one-window
	// aggregator stays small.
	slab []WindowMetrics
}

// NewAggregator returns an empty aggregator.
func NewAggregator() *Aggregator {
	return &Aggregator{table: make(map[Key][]*dayRow)}
}

// SetWindowFilter restricts which windows retain per-window metrics. Nil
// (the default) keeps everything.
func (a *Aggregator) SetWindowFilter(f func(clock.Window) bool) { a.filter = f }

// dayFor returns k's row for day d. A day new to k is inserted in day
// order — the row given as fresh, or an empty one when that is nil — by
// the same tail scan as windowFor: days arrive ascending, or nearly so
// when parallel shards merge as they finish.
func (a *Aggregator) dayFor(k Key, d clock.Day, fresh *dayRow) *dayRow {
	rows := a.table[k]
	i := len(rows)
	for i > 0 && rows[i-1].base.Day > d {
		i--
	}
	if i > 0 && rows[i-1].base.Day == d {
		return rows[i-1]
	}
	if fresh == nil {
		fresh = &dayRow{base: DayBaseline{Day: d}}
	}
	a.table[k] = slices.Insert(rows, i, fresh)
	return fresh
}

// Add folds one query observation for the NSSet k at time t.
func (a *Aggregator) Add(k Key, t time.Time, status QueryStatus, rtt time.Duration) {
	r := a.dayFor(k, clock.DayOf(t), nil)
	if w := clock.WindowOf(t); a.filter == nil || a.filter(w) {
		a.windowFor(r, w).addSample(status, rtt)
	}
	r.base.Domains++
	if status == StatusOK {
		r.base.OKCount++
		r.base.SumRTT += rtt
	}
}

// Merge folds another aggregator's contents into a and consumes o, which
// is left empty (a stale use reads nothing instead of aliasing a's rows).
// Use after sharded parallel sweeps; sample order within a window does not
// matter for any retained statistic. A (NSSet, day) new to a — every row
// of a day-sharded sweep — is adopted as it is, windows and all; only a
// day both sides measured is folded window by window.
func (a *Aggregator) Merge(o *Aggregator) {
	for k, rows := range o.table {
		for _, or := range rows {
			r := a.dayFor(k, or.base.Day, or)
			if r == or {
				continue
			}
			r.base.merge(&or.base)
			r.wins = slices.Grow(r.wins, len(or.wins))
			for _, m := range or.wins {
				a.windowFor(r, m.Window).merge(m)
			}
		}
	}
	clear(o.table)
}

// DayWindows returns k's measured windows of calendar day d, ascending
// by window. The slice is shared; treat it as read-only. Measurements are
// sparse within an attack span (each domain is swept once a day), so the
// join walks a day's actual windows instead of probing every 5-minute
// window of the span.
func (a *Aggregator) DayWindows(k Key, d clock.Day) []*WindowMetrics {
	if r := findDay(a.table[k], d); r != nil {
		return r.wins
	}
	return nil
}

// Window returns the metrics for (k, w), or nil if nothing was measured.
func (a *Aggregator) Window(k Key, w clock.Window) *WindowMetrics {
	wins := a.DayWindows(k, w.Day())
	i, ok := slices.BinarySearchFunc(wins, w, func(m *WindowMetrics, w clock.Window) int { return cmp.Compare(m.Window, w) })
	if !ok {
		return nil
	}
	return wins[i]
}

// Baseline returns the day aggregate for (k, d), or nil. The value
// aliases the aggregator's live aggregate; treat it as read-only.
func (a *Aggregator) Baseline(k Key, d clock.Day) *DayBaseline {
	if r := findDay(a.table[k], d); r != nil {
		return &r.base
	}
	return nil
}

// Keys returns all NSSets with any measurements, in deterministic order.
func (a *Aggregator) Keys() []Key {
	out := make([]Key, 0, len(a.table))
	for k := range a.table {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// Windows returns the measured windows for an NSSet in ascending order.
func (a *Aggregator) Windows(k Key) []*WindowMetrics {
	var out []*WindowMetrics
	for _, r := range a.table[k] {
		out = append(out, r.wins...)
	}
	return out
}

// ImpactOnRTT computes Eq. 1 for NSSet k in window w:
//
//	Impact_on_RTT = AvgRTT(5 min window) / AvgRTT(day before)
//
// The boolean is false when either term is missing (no measurements in the
// window, or no baseline the previous day).
func (a *Aggregator) ImpactOnRTT(k Key, w clock.Window) (float64, bool) {
	return a.ImpactVsDay(k, w, w.Day().Prev())
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
