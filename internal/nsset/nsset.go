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
	"sync"
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

// ID is an NSSet's index in an Interner's table: dense, in first-seen
// order. It identifies the NSSet only inside that table — files, CSV and
// the day-store reads keep using the Key.
type ID uint32

// Interner is a table of distinct NSSets: one Key per address set (equal
// keys from one Interner share their bytes, and a set seen before costs no
// allocation) and a dense ID beside it. A measurement engine builds one
// per world, and the aggregators of its sweeps index their rows by its
// IDs. The zero value is ready to use; an Interner is safe for concurrent
// use.
type Interner struct {
	mu   sync.RWMutex
	ids  map[Key]ID
	keys []Key // by ID; append-only, so a slice of it read under mu stays valid
	// sorted is every ID ascending by key, rebuilt by Sorted once keys grew.
	sorted []ID
}

// Intern returns the table's key — the package-level KeyOf's, interned —
// and ID of the address set, adding it when it is new. It sorts addrs in
// place.
func (in *Interner) Intern(addrs []netx.Addr) (Key, ID) {
	slices.Sort(addrs)
	var arr [64]byte // sixteen addresses; a larger set spills by append
	buf := appendKey(arr[:0], addrs)
	in.mu.RLock()
	id, ok := in.ids[Key(buf)]
	if ok {
		k := in.keys[id]
		in.mu.RUnlock()
		return k, id
	}
	in.mu.RUnlock()
	k := Key(buf)
	return k, in.ID(k)
}

// ID returns k's ID, adding k to the table when it is new.
func (in *Interner) ID(k Key) ID {
	if id, ok := in.Lookup(k); ok {
		return id
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	id, ok := in.ids[k]
	if !ok {
		if in.ids == nil {
			in.ids = make(map[Key]ID)
		}
		id = ID(len(in.keys))
		in.ids[k] = id
		in.keys = append(in.keys, k)
	}
	return id
}

// Lookup returns k's ID if the table holds k.
func (in *Interner) Lookup(k Key) (ID, bool) {
	in.mu.RLock()
	id, ok := in.ids[k]
	in.mu.RUnlock()
	return id, ok
}

// Key returns the key an ID of this table stands for.
func (in *Interner) Key(id ID) Key {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return in.keys[id]
}

// Len returns how many NSSets the table holds; its IDs are [0, Len).
func (in *Interner) Len() int {
	in.mu.RLock()
	defer in.mu.RUnlock()
	return len(in.keys)
}

// Sorted returns the keys by ID and every ID ascending by key — the order
// of Keys, Snapshot, a sealed day file and the join's index. Both slices
// are read-only and stay valid, and consistent, after keys are added.
func (in *Interner) Sorted() (keys []Key, sorted []ID) {
	in.mu.RLock()
	keys, sorted = in.keys, in.sorted
	in.mu.RUnlock()
	if len(sorted) == len(keys) {
		return keys, sorted
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	if len(in.sorted) != len(in.keys) {
		keys = in.keys
		sorted = make([]ID, len(keys))
		for i := range sorted {
			sorted[i] = ID(i)
		}
		slices.SortFunc(sorted, func(x, y ID) int { return cmp.Compare(keys[x], keys[y]) })
		in.sorted = sorted
	}
	return in.keys, in.sorted
}

// Addr decodes the i-th member address, 0 ≤ i < Size(), ascending: the
// walk that copies nothing (Addrs allocates the decoded slice).
func (k Key) Addr(i int) netx.Addr {
	return netx.Addr(uint32(k[4*i])<<24 | uint32(k[4*i+1])<<16 | uint32(k[4*i+2])<<8 | uint32(k[4*i+3]))
}

// Addrs decodes the member addresses.
func (k Key) Addrs() []netx.Addr {
	out := make([]netx.Addr, k.Size())
	for i := range out {
		out[i] = k.Addr(i)
	}
	return out
}

// Size returns the number of member nameserver addresses.
func (k Key) Size() int { return len(k) / 4 }

// Contains reports whether the set includes addr.
func (k Key) Contains(addr netx.Addr) bool {
	for i := 0; i < k.Size(); i++ {
		if k.Addr(i) == addr {
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
	default: // StatusServFail
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

// winNode is one retained window in a day table's slab, linked to the next
// later window of the same row.
type winNode struct {
	m    WindowMetrics
	next *winNode
}

// dayRow is one NSSet on one calendar day, the paper's unit of
// measurement and the shape of a sealed day file's key row: the day's
// baseline plus its retained windows in ascending window order, as a list
// through the table's slab. base.Domains counts every sample, so it is
// positive exactly when the NSSet was measured that day.
type dayRow struct {
	base       DayBaseline
	head, tail *winNode
	nwin       int32
}

// dayTable is one measured day: a row per NSSet, indexed by the ID the
// aggregator's Interner gave it, and the slab the rows' windows are cut
// from. It holds no per-row object, so a finished day changes hands
// (Merge) or is emptied for the next day (Reset) as one value.
type dayTable struct {
	day  clock.Day
	rows []dayRow
	// blocks is the window slab. A full block is followed by a new one,
	// never regrown, so a *WindowMetrics already handed out stays valid;
	// new blocks double from 16 to 256 entries, so a one-window day stays
	// small. blocks[:used] hold this day's windows; later ones are empty,
	// kept from a recycled day.
	blocks [][]winNode
	used   int
	nwin   int
}

// newNode cuts the node of a new window from the slab.
func (t *dayTable) newNode(w clock.Window) *winNode {
	if t.used == 0 || len(t.blocks[t.used-1]) == cap(t.blocks[t.used-1]) {
		if t.used == len(t.blocks) {
			size := 16
			if t.used > 0 {
				size = min(2*cap(t.blocks[t.used-1]), 256)
			}
			if t.blocks == nil {
				t.blocks = make([][]winNode, 0, 16)
			}
			t.blocks = append(t.blocks, make([]winNode, 0, size))
		}
		t.used++
	}
	b := &t.blocks[t.used-1]
	*b = append(*b, winNode{m: WindowMetrics{Window: w}})
	t.nwin++
	return &(*b)[len(*b)-1]
}

// windowFor returns r's metrics for w, linking them in window order when
// new. Samples arrive in sweep (time) order, so a hit or an append is
// decided at the row's tail; the rare out-of-order sample walks the list,
// which a day bounds at 288 windows.
func (t *dayTable) windowFor(r *dayRow, w clock.Window) *WindowMetrics {
	if r.tail != nil && r.tail.m.Window == w {
		return &r.tail.m
	}
	// link points at the pointer the new node goes behind.
	link := &r.head
	if r.tail != nil && r.tail.m.Window < w {
		link = &r.tail.next
	} else {
		for n := *link; n != nil && n.m.Window <= w; n = *link {
			if n.m.Window == w {
				return &n.m
			}
			link = &n.next
		}
	}
	n := t.newNode(w)
	n.next = *link
	*link = n
	if n.next == nil {
		r.tail = n
	}
	r.nwin++
	return &n.m
}

// row returns id's row, growing the table for an ID handed out after it
// was sized.
func (t *dayTable) row(id ID) *dayRow {
	if int(id) >= len(t.rows) {
		t.rows = append(t.rows, make([]dayRow, int(id)+1-len(t.rows))...)
	}
	r := &t.rows[id]
	r.base.Day = t.day
	return r
}

// measured returns id's row if the NSSet was measured on the table's day.
func (t *dayTable) measured(id ID) *dayRow {
	if int(id) >= len(t.rows) || t.rows[id].base.Domains == 0 {
		return nil
	}
	return &t.rows[id]
}

// reset empties the table for another day, keeping its memory.
func (t *dayTable) reset(d clock.Day, rows int) {
	t.day = d
	if cap(t.rows) < rows {
		t.rows = make([]dayRow, rows)
	}
	clear(t.rows[:cap(t.rows)])
	t.rows = t.rows[:rows]
	for i := range t.blocks[:t.used] {
		t.blocks[i] = t.blocks[i][:0]
	}
	t.used, t.nwin = 0, 0
}

// Aggregator folds per-query measurement samples into per-NSSet window
// metrics and day baselines: one dayTable per measured day (DESIGN §3.13).
// It is not safe for concurrent use; the measurement engine owns one per
// day-shard (Merge or seal them for parallel sweeps). Reads never write,
// so a filled aggregator serves concurrent readers.
type Aggregator struct {
	// tab names the rows: the engine's table for a sweep's aggregators
	// (so records are added by ID, and aggregators of one run exchange
	// whole days), a private one otherwise.
	tab *Interner
	// days is the measured days, ascending.
	days []*dayTable
	// cur is the table of the last Add; a sweep stays on one day.
	cur *dayTable
	// spare is tables emptied by Reset, for the next new days.
	spare []*dayTable
	// filter, when set, limits per-window metric retention to the
	// (NSSet, window) pairs it keeps, by the ID of the aggregator's
	// Interner; day baselines are always kept. A study sets it to the
	// join's demand — each attacked nameserver's NSSets over the attack
	// span plus margins (study.Session.NewAggregator) — matching how the
	// paper's Hadoop pipeline only materializes joined windows.
	filter func(ID, clock.Window) bool
}

// NewAggregator returns an empty aggregator over a table of its own.
func NewAggregator() *Aggregator { return NewAggregatorOver(new(Interner)) }

// NewAggregatorOver returns an empty aggregator whose rows are indexed by
// tab's IDs: AddID takes them, and Merge between aggregators over one
// table moves a finished day without touching its rows.
func NewAggregatorOver(tab *Interner) *Aggregator { return &Aggregator{tab: tab} }

// Interner returns the table the aggregator's IDs come from.
func (a *Aggregator) Interner() *Interner { return a.tab }

// SetWindowFilter restricts which windows retain per-window metrics: a
// sample of the NSSet with the given ID of the aggregator's Interner in
// window w keeps its window only if f(id, w). Nil (the default) keeps
// everything. f is called from the adding goroutine, and aggregators of
// parallel sweeps share one, so it must be safe for concurrent use.
func (a *Aggregator) SetWindowFilter(f func(ID, clock.Window) bool) { a.filter = f }

// findDay binary-searches the ascending day tables.
func (a *Aggregator) findDay(d clock.Day) (int, bool) {
	return slices.BinarySearchFunc(a.days, d, func(t *dayTable, d clock.Day) int { return cmp.Compare(t.day, d) })
}

// table returns day d's table, nil when d was not measured.
func (a *Aggregator) table(d clock.Day) *dayTable {
	if i, ok := a.findDay(d); ok {
		return a.days[i]
	}
	return nil
}

// tableFor returns day d's table for writing, starting it (from a spare
// one when Reset left any) if d is new.
func (a *Aggregator) tableFor(d clock.Day) *dayTable {
	i, ok := a.findDay(d)
	if !ok {
		var t *dayTable
		if n := len(a.spare); n > 0 {
			t, a.spare = a.spare[n-1], a.spare[:n-1]
		} else {
			t = new(dayTable)
		}
		t.reset(d, a.tab.Len())
		a.days = slices.Insert(a.days, i, t)
	}
	a.cur = a.days[i]
	return a.cur
}

// Add folds one query observation for the NSSet k at time t: AddID after
// one lookup of k in the aggregator's table.
func (a *Aggregator) Add(k Key, t time.Time, status QueryStatus, rtt time.Duration) {
	a.AddID(a.tab.ID(k), t, status, rtt)
}

// AddID folds one query observation for the NSSet with the given ID of
// the aggregator's Interner at time t. The record path of a sweep: no
// hash, no map, and no allocation once the day's table and slab exist.
func (a *Aggregator) AddID(id ID, t time.Time, status QueryStatus, rtt time.Duration) {
	tb := a.cur
	if d := clock.DayOf(t); tb == nil || tb.day != d {
		tb = a.tableFor(d)
	}
	r := tb.row(id)
	if w := clock.WindowOf(t); a.filter == nil || a.filter(id, w) {
		tb.windowFor(r, w).addSample(status, rtt)
	}
	r.base.Domains++
	if status == StatusOK {
		r.base.OKCount++
		r.base.SumRTT += rtt
	}
}

// Merge folds another aggregator's contents into a and consumes o, which
// is left empty (a stale use reads nothing instead of aliasing a's
// tables). Use after sharded parallel sweeps; sample order within a window
// does not matter for any retained statistic. Between aggregators over one
// Interner a day new to a — every day of a day-sharded sweep — is adopted
// as a whole table, its rows and windows untouched; a day both sides
// measured, or one numbered by another Interner, is folded row by row.
func (a *Aggregator) Merge(o *Aggregator) {
	for _, ot := range o.days {
		i, held := a.findDay(ot.day)
		if !held && a.tab == o.tab {
			a.days = slices.Insert(a.days, i, ot)
			continue
		}
		t := a.tableFor(ot.day)
		for id := range ot.rows {
			or := ot.measured(ID(id))
			if or == nil {
				continue
			}
			nid := ID(id)
			if a.tab != o.tab {
				nid = a.tab.ID(o.tab.Key(nid))
			}
			r := t.row(nid)
			r.base.merge(&or.base)
			for n := or.head; n != nil; n = n.next {
				t.windowFor(r, n.m.Window).merge(&n.m)
			}
		}
	}
	clear(o.days)
	o.days, o.cur = o.days[:0], nil
}

// Reset empties the aggregator and keeps its tables' memory for the days
// added next, so a worker that seals each day it sweeps fills one table
// over and over. Every *WindowMetrics and *DayBaseline handed out before
// is invalid afterwards.
func (a *Aggregator) Reset() {
	a.spare = append(a.spare, a.days...)
	clear(a.days)
	a.days, a.cur = a.days[:0], nil
}

// row returns k's row of day d, nil when k was not measured that day.
func (a *Aggregator) row(k Key, d clock.Day) *dayRow {
	t := a.table(d)
	if t == nil {
		return nil
	}
	id, ok := a.tab.Lookup(k)
	if !ok {
		return nil
	}
	return t.measured(id)
}

// AppendWindows appends k's measured windows w with from ≤ w ≤ to to dst,
// ascending, crossing days, and returns the extended slice: the ranged
// read of core.DayStore. Measurements are sparse within an attack span
// (each domain is swept once a day), so the join takes the span's actual
// windows in one read — one key lookup, then each measured day's list —
// instead of probing every 5-minute window. The values are copies.
func (a *Aggregator) AppendWindows(dst []WindowMetrics, k Key, from, to clock.Window) []WindowMetrics {
	if from > to {
		return dst
	}
	id, ok := a.tab.Lookup(k)
	if !ok {
		return dst
	}
	i, _ := a.findDay(from.Day())
	for _, t := range a.days[i:] {
		if t.day > to.Day() {
			break
		}
		r := t.measured(id)
		if r == nil {
			continue
		}
		for n := r.head; n != nil && n.m.Window <= to; n = n.next {
			if n.m.Window >= from {
				dst = append(dst, n.m)
			}
		}
	}
	return dst
}

// Baseline returns the day aggregate for (k, d) by value; false when k was
// not measured that day.
func (a *Aggregator) Baseline(k Key, d clock.Day) (DayBaseline, bool) {
	if r := a.row(k, d); r != nil {
		return r.base, true
	}
	return DayBaseline{}, false
}

// Keys returns all NSSets with any measurements, in deterministic order.
func (a *Aggregator) Keys() []Key {
	var out []Key
	keys, sorted := a.tab.Sorted()
	for _, id := range sorted {
		for _, t := range a.days {
			if t.measured(id) != nil {
				out = append(out, keys[id])
				break
			}
		}
	}
	return out
}

// Windows returns every live window measured for an NSSet, ascending; an
// audit accessor for tests. Treat the metrics as read-only.
func (a *Aggregator) Windows(k Key) []*WindowMetrics {
	id, ok := a.tab.Lookup(k)
	if !ok {
		return nil
	}
	var out []*WindowMetrics
	for _, t := range a.days {
		if r := t.measured(id); r != nil {
			for n := r.head; n != nil; n = n.next {
				out = append(out, &n.m)
			}
		}
	}
	return out
}

// ForeignDay reports a measured day other than d, if the aggregator holds
// one: what sealing d from it must refuse.
func (a *Aggregator) ForeignDay(d clock.Day) (clock.Day, bool) {
	for _, t := range a.days {
		if t.day != d {
			return t.day, true
		}
	}
	return 0, false
}

// WalkDay visits day d's measured rows in ascending key order, and each
// row's windows in ascending window order — the order of a sealed day
// file, so sealing is this walk. row gets the NSSet, its day aggregate and
// how many windows follow; window (nil to skip them) gets each of those.
// Both see the aggregator's live values: read-only.
func (a *Aggregator) WalkDay(d clock.Day, row func(k Key, b *DayBaseline, windows int), window func(*WindowMetrics)) {
	t := a.table(d)
	if t == nil {
		return
	}
	keys, sorted := a.tab.Sorted()
	for _, id := range sorted {
		r := t.measured(id)
		if r == nil {
			continue
		}
		row(keys[id], &r.base, int(r.nwin))
		for n := r.head; n != nil && window != nil; n = n.next {
			window(&n.m)
		}
	}
}
