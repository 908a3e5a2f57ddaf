package nsset

import (
	"cmp"
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"dnsddos/internal/clock"
	"dnsddos/internal/netx"
)

func addrs(ss ...string) []netx.Addr {
	out := make([]netx.Addr, len(ss))
	for i, s := range ss {
		out[i] = netx.MustParseAddr(s)
	}
	return out
}

func TestKeyOfOrderIndependent(t *testing.T) {
	a := KeyOf(addrs("192.0.2.1", "192.0.2.2", "198.51.100.1"))
	b := KeyOf(addrs("198.51.100.1", "192.0.2.2", "192.0.2.1"))
	if a != b {
		t.Error("key should not depend on input order")
	}
}

func TestKeyOfDedup(t *testing.T) {
	a := KeyOf(addrs("192.0.2.1", "192.0.2.1", "192.0.2.2"))
	if a.Size() != 2 {
		t.Errorf("size = %d, want 2", a.Size())
	}
}

// TestInternerMatchesKeyOf: an interned key is KeyOf's key for any order
// and duplication of the addresses (18 of them spill the stack array),
// equal sets get one backing string, and a set seen before allocates
// nothing.
func TestInternerMatchesKeyOf(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 0x1e7))
	var in Interner
	first := make(map[Key]*byte)
	for round := 0; round < 500; round++ {
		set := make([]netx.Addr, 1+rng.IntN(18))
		for i := range set {
			set[i] = netx.Addr(0x0a000000 + rng.IntN(24))
		}
		want := KeyOf(set)
		got, _ := in.Intern(set)
		if got != want {
			t.Fatalf("interned key %x, KeyOf %x", string(got), string(want))
		}
		if p, seen := first[got]; !seen {
			first[got] = unsafe.StringData(string(got))
		} else if p != unsafe.StringData(string(got)) {
			t.Fatalf("key %x interned twice", string(got))
		}
	}
	set := addrs("192.0.2.2", "192.0.2.1", "192.0.2.2")
	in.Intern(set)
	if n := testing.AllocsPerRun(20, func() { in.Intern(set) }); n != 0 {
		t.Errorf("a key seen before cost %.0f allocations", n)
	}
}

func TestKeyAddrsRoundTrip(t *testing.T) {
	f := func(vals []uint32) bool {
		if len(vals) == 0 {
			return true
		}
		in := make([]netx.Addr, len(vals))
		for i, v := range vals {
			in[i] = netx.Addr(v)
		}
		k := KeyOf(in)
		out := k.Addrs()
		// output sorted, unique, subset check both ways
		seen := map[netx.Addr]bool{}
		for _, a := range in {
			seen[a] = true
		}
		if len(out) != len(seen) {
			return false
		}
		for i, a := range out {
			if !seen[a] {
				return false
			}
			if i > 0 && out[i-1] >= a {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKeyContains(t *testing.T) {
	k := KeyOf(addrs("192.0.2.1", "192.0.2.2"))
	if !k.Contains(netx.MustParseAddr("192.0.2.1")) {
		t.Error("should contain member")
	}
	if k.Contains(netx.MustParseAddr("192.0.2.3")) {
		t.Error("should not contain non-member")
	}
}

// TestKeyReadsAllocate: a membership test reads the key's bytes in place,
// and decoding the members costs the one slice it returns.
func TestKeyReadsAllocate(t *testing.T) {
	k := KeyOf(addrs("192.0.2.1", "192.0.2.2", "198.51.100.7"))
	member, stranger := netx.MustParseAddr("198.51.100.7"), netx.MustParseAddr("203.0.113.1")
	if n := testing.AllocsPerRun(100, func() {
		if !k.Contains(member) || k.Contains(stranger) {
			t.Fatal("Contains is wrong")
		}
	}); n != 0 {
		t.Errorf("Contains allocates %v times, want 0", n)
	}
	var got []netx.Addr
	if n := testing.AllocsPerRun(100, func() { got = k.Addrs() }); n != 1 {
		t.Errorf("Addrs allocates %v times, want 1", n)
	}
	if want := addrs("192.0.2.1", "192.0.2.2", "198.51.100.7"); !slices.Equal(got, want) {
		t.Errorf("Addrs = %v, want %v", got, want)
	}
}

// TestInternerIDs: IDs are dense in first-seen order, stable, and name the
// key they were handed out with, by address set or by key.
func TestInternerIDs(t *testing.T) {
	var in Interner
	sets := [][]netx.Addr{addrs("10.0.0.9"), addrs("10.0.0.1", "10.0.0.2"), addrs("10.0.0.5")}
	for want, set := range sets {
		k, id := in.Intern(set)
		if id != ID(want) || k != KeyOf(set) || in.Key(id) != k {
			t.Fatalf("set %d interned as (%x, %d), table names it %x", want, string(k), id, string(in.Key(id)))
		}
	}
	for want, set := range sets {
		if _, id := in.Intern(set); id != ID(want) {
			t.Errorf("set %d re-interned as %d", want, id)
		}
		if id, ok := in.Lookup(KeyOf(set)); !ok || id != ID(want) {
			t.Errorf("Lookup of set %d = %d, %v", want, id, ok)
		}
	}
	if _, ok := in.Lookup(KeyOf(addrs("10.9.9.9"))); ok {
		t.Error("Lookup found a key never interned")
	}
	if id := in.ID(KeyOf(addrs("10.9.9.9"))); id != 3 || in.Len() != 4 {
		t.Errorf("a new key got ID %d in a table of %d", id, in.Len())
	}
	keys, sorted := in.Sorted()
	if !slices.IsSortedFunc(sorted, func(x, y ID) int { return cmp.Compare(keys[x], keys[y]) }) || len(sorted) != 4 {
		t.Errorf("Sorted order %v is not every ID ascending by key", sorted)
	}
}

func TestKeyString(t *testing.T) {
	k := KeyOf(addrs("192.0.2.2", "192.0.2.1"))
	if got := k.String(); got != "{192.0.2.1, 192.0.2.2}" {
		t.Errorf("String = %q", got)
	}
}

func TestDiversityClass(t *testing.T) {
	cases := []struct {
		d    Diversity
		want AnycastClass
	}{
		{Diversity{NumNS: 3, NumAnycast: 0}, Unicast},
		{Diversity{NumNS: 3, NumAnycast: 1}, PartialAnycast},
		{Diversity{NumNS: 3, NumAnycast: 3}, FullAnycast},
	}
	for _, c := range cases {
		if got := c.d.Class(); got != c.want {
			t.Errorf("%+v class = %v, want %v", c.d, got, c.want)
		}
	}
}

func TestWindowMetrics(t *testing.T) {
	var m WindowMetrics
	m.addSample(StatusOK, 10*time.Millisecond)
	m.addSample(StatusOK, 30*time.Millisecond)
	m.addSample(StatusTimeout, 0)
	m.addSample(StatusServFail, 0)
	if m.Domains != 4 || m.OKCount != 2 || m.Timeouts != 1 || m.ServFails != 1 {
		t.Errorf("counts: %+v", m)
	}
	if m.AvgRTT() != 20*time.Millisecond {
		t.Errorf("AvgRTT = %v", m.AvgRTT())
	}
	if m.MinRTT != 10*time.Millisecond || m.MaxRTT != 30*time.Millisecond {
		t.Errorf("min/max = %v/%v", m.MinRTT, m.MaxRTT)
	}
	if m.FailureRate() != 0.5 {
		t.Errorf("FailureRate = %v", m.FailureRate())
	}
}

func TestAggregatorWindowsAndBaselines(t *testing.T) {
	agg := NewAggregator()
	k := KeyOf(addrs("192.0.2.1"))
	day0 := clock.StudyStart
	// day 0: baseline at 10ms
	for i := 0; i < 10; i++ {
		agg.Add(k, day0.Add(time.Duration(i)*time.Hour), StatusOK, 10*time.Millisecond)
	}
	// day 1: one window at 100ms
	attackTime := day0.AddDate(0, 0, 1).Add(12 * time.Hour)
	agg.Add(k, attackTime, StatusOK, 100*time.Millisecond)
	agg.Add(k, attackTime.Add(time.Minute), StatusOK, 100*time.Millisecond)

	// Eq. 1's two terms: the attack window at 100 ms over the day before at 10
	m, ok := window(agg, k, clock.WindowOf(attackTime))
	if !ok || m.Domains != 2 || m.AvgRTT() != 100*time.Millisecond {
		t.Errorf("window = %+v, %v", m, ok)
	}
	if b, ok := agg.Baseline(k, 0); !ok || b.OKCount != 10 || b.AvgRTT() != 10*time.Millisecond {
		t.Errorf("baseline = %+v", b)
	}
}

// TestImpactUndefinedWithoutBaseline: the reads report what leaves Eq. 1
// undefined in the join — no measurement the day before, and a window
// measured with no answer in it.
func TestImpactUndefinedWithoutBaseline(t *testing.T) {
	agg := NewAggregator()
	k := KeyOf(addrs("192.0.2.1"))
	tm := clock.StudyStart.Add(50 * 24 * time.Hour)
	agg.Add(k, tm, StatusOK, 5*time.Millisecond)
	if b, ok := agg.Baseline(k, clock.DayOf(tm).Prev()); ok {
		t.Errorf("a day never measured has a baseline: %+v", b)
	}
	// all-timeout window: no RTT either
	agg.Add(k, tm.AddDate(0, 0, -1), StatusOK, 5*time.Millisecond)
	tm2 := tm.Add(time.Hour)
	agg.Add(k, tm2, StatusTimeout, 0)
	if m, ok := window(agg, k, clock.WindowOf(tm2)); !ok || m.OKCount != 0 || m.Timeouts != 1 {
		t.Errorf("all-failure window = %+v, %v", m, ok)
	}
}

func TestWindowFilterKeepsBaselines(t *testing.T) {
	agg := NewAggregator()
	agg.SetWindowFilter(func(ID, clock.Window) bool { return false })
	k := KeyOf(addrs("10.0.0.1"))
	tm := clock.StudyStart.Add(3 * time.Hour)
	agg.Add(k, tm, StatusOK, 5*time.Millisecond)
	if _, ok := window(agg, k, clock.WindowOf(tm)); ok {
		t.Error("filtered window should not be retained")
	}
	if b, ok := agg.Baseline(k, clock.DayOf(tm)); !ok || b.OKCount != 1 {
		t.Error("baseline must be retained regardless of filter")
	}
}

// hasBaseline reports whether a holds a baseline for (k, d).
func hasBaseline(a *Aggregator, k Key, d clock.Day) bool {
	_, ok := a.Baseline(k, d)
	return ok
}

// window is the point read through the ranged one: k's metrics of window
// w, false when k was not measured in w.
func window(a *Aggregator, k Key, w clock.Window) (WindowMetrics, bool) {
	if m := a.AppendWindows(nil, k, w, w); len(m) == 1 {
		return m[0], true
	}
	return WindowMetrics{}, false
}

// bucketsOrdered checks the ordered insert on an aggregator filled in
// random time order: every day bucket of k over [0, days) — the ranged
// read over exactly that day — is strictly ascending and holds only that
// day's windows, each a copy of the live window, and the one-window read
// agrees with the buckets on each hit and on both of its neighbours (a
// miss unless the neighbour was measured too).
func bucketsOrdered(a *Aggregator, k Key, days clock.Day) error {
	held := make(map[clock.Window]WindowMetrics)
	for d := clock.Day(0); d < days; d++ {
		wins := a.AppendWindows(nil, k, d.FirstWindow(), (d+1).FirstWindow()-1)
		for i, m := range wins {
			if m.Window.Day() != d {
				return fmt.Errorf("day %d bucket holds window %v", d, m.Window)
			}
			if i > 0 && wins[i-1].Window >= m.Window {
				return fmt.Errorf("day %d bucket not strictly ascending at %d: %v then %v", d, i, wins[i-1].Window, m.Window)
			}
			held[m.Window] = m
		}
	}
	live := a.Windows(k)
	if len(held) != len(live) {
		return fmt.Errorf("day buckets hold %d windows, Windows(k) %d", len(held), len(live))
	}
	for _, m := range live {
		if held[m.Window] != *m {
			return fmt.Errorf("buckets hold %+v, the live window is %+v", held[m.Window], *m)
		}
	}
	for w := range held {
		for _, probe := range []clock.Window{w - 1, w, w + 1} {
			want, hit := held[probe]
			if got, ok := window(a, k, probe); ok != hit || got != want {
				return fmt.Errorf("window(%v) = %+v, %v; buckets hold %+v, %v", probe, got, ok, want, hit)
			}
		}
	}
	return nil
}

// TestAddExistingWindowAllocatesNothing: once a (key, day, window) exists,
// folding another sample into it is a lookup and integer adds — by key or
// by ID, at the row's tail or (a late sample) in the middle of its list —
// and so is merging a day into a table that already holds its windows.
func TestAddExistingWindowAllocatesNothing(t *testing.T) {
	agg := NewAggregator()
	k := KeyOf(addrs("10.0.0.1", "10.0.0.2"))
	tm := clock.StudyStart.Add(30 * time.Hour)
	for i := 0; i < 3; i++ {
		agg.Add(k, tm.Add(time.Duration(i)*clock.WindowDur), StatusOK, time.Millisecond)
	}
	id, _ := agg.Interner().Lookup(k)
	for name, add := range map[string]func(){
		"by key, last window": func() { agg.Add(k, tm.Add(2*clock.WindowDur+time.Second), StatusOK, time.Millisecond) },
		"by ID, last window":  func() { agg.AddID(id, tm.Add(2*clock.WindowDur+time.Second), StatusOK, time.Millisecond) },
		"by ID, late sample":  func() { agg.AddID(id, tm.Add(clock.WindowDur+time.Second), StatusOK, time.Millisecond) },
	} {
		if n := testing.AllocsPerRun(100, add); n != 0 {
			t.Errorf("Add into an existing window (%s) allocates %v times", name, n)
		}
	}
	if n := len(agg.Windows(k)); n != 3 {
		t.Fatalf("%d windows after adds into 3", n)
	}

	var others []*Aggregator
	for i := 0; i <= 20; i++ {
		o := NewAggregatorOver(agg.Interner())
		for w := 0; w < 3; w++ {
			o.AddID(id, tm.Add(time.Duration(w)*clock.WindowDur), StatusTimeout, 0)
		}
		others = append(others, o)
	}
	if n := testing.AllocsPerRun(20, func() {
		agg.Merge(others[len(others)-1])
		others = others[:len(others)-1]
	}); n != 0 {
		t.Errorf("folding a day into a table that holds its windows allocates %v times", n)
	}
	if m, _ := window(agg, k, clock.WindowOf(tm)); m.Timeouts != 21 {
		t.Errorf("%d merged samples in the window, want 21", m.Timeouts)
	}
}

func TestMergeEquivalentToSequential(t *testing.T) {
	k := KeyOf(addrs("10.0.0.1", "10.0.0.2"))
	rng := rand.New(rand.NewPCG(1, 1))
	type sample struct {
		t   time.Time
		st  QueryStatus
		rtt time.Duration
	}
	var samples []sample
	for i := 0; i < 500; i++ {
		samples = append(samples, sample{
			t:   clock.StudyStart.Add(time.Duration(rng.IntN(3*86400)) * time.Second),
			st:  QueryStatus(rng.IntN(3)),
			rtt: time.Duration(rng.IntN(50)) * time.Millisecond,
		})
	}
	seq := NewAggregator()
	for _, s := range samples {
		seq.Add(k, s.t, s.st, s.rtt)
	}
	a1, a2 := NewAggregator(), NewAggregator()
	for i, s := range samples {
		if i%2 == 0 {
			a1.Add(k, s.t, s.st, s.rtt)
		} else {
			a2.Add(k, s.t, s.st, s.rtt)
		}
	}
	a1.Merge(a2)
	for name, agg := range map[string]*Aggregator{"sequential": seq, "merged": a1} {
		if err := bucketsOrdered(agg, k, 3); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	// Merge consumes its argument: the merged-from side reads as empty
	if keys := a2.Keys(); len(keys) != 0 || a2.Windows(k) != nil || hasBaseline(a2, k, 0) {
		t.Fatalf("merged-from aggregator still holds %d keys", len(keys))
	}
	for _, wm := range seq.Windows(k) {
		if got, ok := window(a1, k, wm.Window); !ok || got != *wm {
			t.Fatalf("window %v: merged %+v != sequential %+v", wm.Window, got, wm)
		}
	}
	for d := clock.Day(0); d < 3; d++ {
		sb, sok := seq.Baseline(k, d)
		mb, mok := a1.Baseline(k, d)
		if sok != mok {
			t.Fatalf("day %d baseline presence mismatch", d)
		}
		if sb != mb {
			t.Fatalf("day %d baseline %+v != %+v", d, mb, sb)
		}
	}
}

func TestKeysDeterministic(t *testing.T) {
	agg := NewAggregator()
	k1 := KeyOf(addrs("10.0.0.2"))
	k2 := KeyOf(addrs("10.0.0.1"))
	agg.Add(k1, clock.StudyStart, StatusOK, time.Millisecond)
	agg.Add(k2, clock.StudyStart, StatusOK, time.Millisecond)
	keys := agg.Keys()
	if len(keys) != 2 || keys[0] != k2 || keys[1] != k1 {
		t.Errorf("Keys = %v", keys)
	}
}

func TestStatusString(t *testing.T) {
	if StatusOK.String() != "OK" || StatusTimeout.String() != "TIMEOUT" || StatusServFail.String() != "SERVFAIL" {
		t.Error("status strings")
	}
}

// TestMergeCommutesAndAssociates: sharded aggregation must not depend on
// merge order (testing/quick over random sample partitions).
func TestMergeCommutesAndAssociates(t *testing.T) {
	k := KeyOf(addrs("10.1.0.1"))
	build := func(seed uint64) (*Aggregator, *Aggregator, *Aggregator) {
		rng := rand.New(rand.NewPCG(seed, 0x77))
		parts := []*Aggregator{NewAggregator(), NewAggregator(), NewAggregator()}
		for i := 0; i < 300; i++ {
			tm := clock.StudyStart.Add(time.Duration(rng.IntN(2*86400)) * time.Second)
			parts[rng.IntN(3)].Add(k, tm, QueryStatus(rng.IntN(3)), time.Duration(rng.IntN(40))*time.Millisecond)
		}
		return parts[0], parts[1], parts[2]
	}
	equal := func(x, y *Aggregator) bool {
		for _, wm := range x.Windows(k) {
			if o, ok := window(y, k, wm.Window); !ok || o != *wm {
				return false
			}
		}
		return len(x.Windows(k)) == len(y.Windows(k))
	}
	f := func(seed uint64) bool {
		a1, b1, c1 := build(seed)
		a2, b2, c2 := build(seed)
		// (a ⊕ b) ⊕ c
		a1.Merge(b1)
		a1.Merge(c1)
		// c ⊕ (b ⊕ a)
		b2.Merge(a2)
		c2.Merge(b2)
		for _, agg := range []*Aggregator{a1, c2} {
			if err := bucketsOrdered(agg, k, 2); err != nil {
				t.Log(err)
				return false
			}
		}
		return equal(a1, c2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// dayShards returns one aggregator per day holding that day's samples of
// a seeded stream over several NSSets, next to one aggregator that was
// given every sample in stream order — the two ways a study fills a table.
// The shards number their NSSets by tab, or each by a table of its own when
// tab is nil.
func dayShards(seed uint64, days int, tab *Interner) (shards []*Aggregator, seq *Aggregator, keys []Key) {
	keys = []Key{KeyOf(addrs("10.0.0.1", "10.0.0.2")), KeyOf(addrs("10.0.0.3")), KeyOf(addrs("10.0.1.1", "10.0.1.2"))}
	rng := rand.New(rand.NewPCG(seed, 0x5ab))
	seq = NewAggregator()
	for d := 0; d < days; d++ {
		if tab != nil {
			shards = append(shards, NewAggregatorOver(tab))
		} else {
			shards = append(shards, NewAggregator())
		}
	}
	for i := 0; i < 400*days; i++ {
		k := keys[rng.IntN(len(keys))]
		tm := clock.StudyStart.Add(time.Duration(rng.IntN(days*86400)) * time.Second)
		st, rtt := QueryStatus(rng.IntN(3)), time.Duration(1+rng.IntN(50))*time.Millisecond
		seq.Add(k, tm, st, rtt)
		shards[clock.DayOf(tm)].Add(k, tm, st, rtt)
	}
	return shards, seq, keys
}

// TestMergeAdoptsDisjointDays: merging single-day aggregators — in any
// order, the way parallel day shards finish, over one table or each over
// its own — yields the table sequential Adds build, row for row, and
// leaves every merged shard empty.
func TestMergeAdoptsDisjointDays(t *testing.T) {
	const days = 6
	for name, tab := range map[string]*Interner{"one table": new(Interner), "own tables": nil} {
		shards, seq, keys := dayShards(7, days, tab)
		merged := NewAggregator()
		if tab != nil {
			merged = NewAggregatorOver(tab)
		}
		for _, d := range rand.New(rand.NewPCG(7, 7)).Perm(days) {
			merged.Merge(shards[d])
			if got := shards[d].Keys(); len(got) != 0 {
				t.Fatalf("%s: shard %d still holds %d keys after being merged", name, d, len(got))
			}
		}
		if !aggEqual(seq, merged) {
			t.Fatalf("%s: merged day shards differ from sequential adds", name)
		}
		for _, k := range keys {
			if err := bucketsOrdered(merged, k, days); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, wm := range seq.Windows(k) {
				if got, ok := window(merged, k, wm.Window); !ok || got != *wm {
					t.Fatalf("%s: window %v: merged %+v != sequential %+v", name, wm.Window, got, wm)
				}
			}
			for d := clock.Day(0); d < days; d++ {
				sb, sok := seq.Baseline(k, d)
				if mb, mok := merged.Baseline(k, d); !sok || !mok || sb != mb {
					t.Fatalf("%s: day %d baseline: merged %+v != sequential %+v", name, d, mb, sb)
				}
			}
		}
	}
}

// TestMergeAllocationsFollowRowsNotWindows: between aggregators over one
// table, adopting a finished day moves its table — the growth of the
// receiver's day list, and nothing per row or per window.
func TestMergeAllocationsFollowRowsNotWindows(t *testing.T) {
	const days, runs = 4, 20
	tab := new(Interner)
	var pool [][]*Aggregator
	var rows, wins int
	for i := 0; i <= runs; i++ { // AllocsPerRun warms up with one extra call
		shards, seq, keys := dayShards(uint64(i), days, tab)
		pool = append(pool, shards)
		rows = len(keys) * days
		for _, k := range keys {
			wins += len(seq.Windows(k))
		}
	}
	wins /= runs + 1
	if wins < 20*rows {
		t.Fatalf("fixture too sparse to tell rows from windows: %d windows in %d rows", wins, rows)
	}
	n := testing.AllocsPerRun(runs, func() {
		shards := pool[len(pool)-1]
		pool = pool[:len(pool)-1]
		merged := NewAggregatorOver(tab)
		for _, s := range shards {
			merged.Merge(s)
		}
	})
	// the aggregator, and its day list grown to four
	if n > 4 {
		t.Errorf("merging %d rows holding %d windows allocates %v times, want ≤ 4", rows, wins, n)
	}
}

// TestWindowPointersSurviveSlabGrowth: a *WindowMetrics handed out by
// Windows stays the live window — same address, current values —
// through thousands of later Adds that fill slab block after block and
// grow the day's row slice under it.
func TestWindowPointersSurviveSlabGrowth(t *testing.T) {
	agg := NewAggregator()
	k := KeyOf(addrs("10.0.0.1", "10.0.0.2"))
	t0 := clock.StudyStart.Add(3 * time.Hour)
	agg.Add(k, t0, StatusOK, 10*time.Millisecond)
	held := agg.Windows(k)[0]
	other := KeyOf(addrs("10.9.9.9"))
	for i := 0; i < 10000; i++ { // a new window each: ≥ 20 further blocks over 35 days
		agg.Add(other, clock.StudyStart.Add(time.Duration(i)*clock.WindowDur), StatusOK, time.Millisecond)
	}
	for i := 0; i < 200; i++ { // a new row of day 0 each
		agg.Add(KeyOf([]netx.Addr{netx.Addr(0x0b000000 + i)}), t0, StatusOK, time.Millisecond)
	}
	agg.Add(k, t0.Add(time.Second), StatusOK, 30*time.Millisecond)
	if got := agg.Windows(k)[0]; got != held {
		t.Fatalf("window moved: held %p, aggregator serves %p", held, got)
	}
	want := WindowMetrics{Window: clock.WindowOf(t0), Domains: 2, OKCount: 2,
		SumRTT: 40 * time.Millisecond, MinRTT: 10 * time.Millisecond, MaxRTT: 30 * time.Millisecond}
	if *held != want {
		t.Errorf("held window reads %+v, want %+v", *held, want)
	}
	if n := len(agg.Windows(other)); n != 10000 {
		t.Errorf("%d windows retained, want 10000", n)
	}
}

// dayRecord is one record of a swept day.
type dayRecord struct {
	id  ID
	t   time.Time
	st  QueryStatus
	rtt time.Duration
}

// benchmarkDay returns one swept day of the repository benchmark's shape:
// 100 NSSets in tab, 12,000 records in slot (time) order, and a filter that
// keeps the 54 windows around an attack — about 1,800 retained windows.
func benchmarkDay(day clock.Day) (tab *Interner, recs []dayRecord, filter func(ID, clock.Window) bool) {
	tab = new(Interner)
	for i := 0; i < 100; i++ {
		tab.Intern([]netx.Addr{netx.Addr(0x51000001 + i), netx.Addr(0x51000101 + i)})
	}
	rng := rand.New(rand.NewPCG(23, uint64(day)))
	recs = make([]dayRecord, 12000)
	for i := range recs {
		recs[i] = dayRecord{
			id:  ID(rng.IntN(tab.Len())),
			t:   day.Start().Add(time.Duration(rng.IntN(86400)) * time.Second),
			st:  QueryStatus(rng.IntN(3)),
			rtt: time.Duration(1+rng.IntN(50)) * time.Millisecond,
		}
	}
	slices.SortStableFunc(recs, func(x, y dayRecord) int { return x.t.Compare(y.t) })
	first := day.FirstWindow() + 100
	return tab, recs, func(_ ID, w clock.Window) bool { return w >= first && w < first+54 }
}

// TestDayShardAllocs: a day-shard allocates for the table it builds — the
// aggregator, its day list, the table, its rows, its block list and eleven
// slab blocks at most — not per record, row or window, and a recycled
// aggregator (Reset after the seal) sweeps the next day of the same shape
// without allocating at all.
func TestDayShardAllocs(t *testing.T) {
	tab, recs, filter := benchmarkDay(40)
	sweep := func(agg *Aggregator) {
		for i := range recs {
			r := &recs[i]
			agg.AddID(r.id, r.t, r.st, r.rtt)
		}
	}
	var agg *Aggregator
	fresh := testing.AllocsPerRun(10, func() {
		agg = NewAggregatorOver(tab)
		agg.SetWindowFilter(filter)
		sweep(agg)
	})
	if n := agg.table(40).nwin; n < 1600 || n > 2000 {
		t.Fatalf("fixture retains %d windows, want about 1,800", n)
	}
	if fresh > 16 {
		t.Errorf("a day-shard on a fresh aggregator allocates %v times, want ≤ 16", fresh)
	}
	if recycled := testing.AllocsPerRun(10, func() {
		agg.Reset()
		sweep(agg)
	}); recycled != 0 {
		t.Errorf("a day-shard on a recycled aggregator allocates %v times, want 0", recycled)
	}
	if n := agg.table(40).nwin; n < 1600 || len(agg.Keys()) != tab.Len() {
		t.Errorf("the recycled aggregator holds %d windows of %d NSSets", n, len(agg.Keys()))
	}
}

// TestResetRecycles: a Reset aggregator reads as empty and fills again to
// exactly what a fresh one holds, on another day and with fewer NSSets.
func TestResetRecycles(t *testing.T) {
	tab, recs, filter := benchmarkDay(3)
	agg := NewAggregatorOver(tab)
	agg.SetWindowFilter(filter)
	for _, r := range recs {
		agg.AddID(r.id, r.t, r.st, r.rtt)
	}
	agg.Reset()
	if _, held := agg.ForeignDay(-1); held || len(agg.Keys()) != 0 || hasBaseline(agg, tab.Key(0), 3) {
		t.Fatal("a Reset aggregator still holds measurements")
	}
	_, _, filter = benchmarkDay(5)
	fresh := NewAggregatorOver(tab)
	agg.SetWindowFilter(filter)
	fresh.SetWindowFilter(filter)
	for _, r := range recs[:6000] {
		if r.id%2 == 0 {
			tm := r.t.AddDate(0, 0, 2)
			agg.AddID(r.id, tm, r.st, r.rtt)
			fresh.AddID(r.id, tm, r.st, r.rtt)
		}
	}
	if fresh.table(5).nwin == 0 {
		t.Fatal("the second day retained no window")
	}
	if !aggEqual(agg, fresh) {
		t.Error("a recycled aggregator differs from a fresh one given the same records")
	}
}
