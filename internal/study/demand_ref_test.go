package study

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"dnsddos/internal/clock"
	"dnsddos/internal/core"
	"dnsddos/internal/netx"
	"dnsddos/internal/nsset"
	"dnsddos/internal/obs"
	"dnsddos/internal/rsdos"
)

// demand_ref_test.go keeps the demand's first build as the reference the
// session's is held to: the victims grouped by a counting sort over the
// sorted member addresses of the table's NSSets, each NSSet then
// gathering its members' attack spans. The session's build asks its
// nameserver index, the join's, which NSSets contain each victim; the
// two must give equal bitsets.

// newDemandRef returns the window and day demands of attacks over tab's
// NSSets: every NSSet containing an attack's victim keeps the attack's
// windows from before ahead of its first to after past its last, and
// each kept window's day and the days backs before it. It allocates the
// same objects whatever the number of NSSets and attacks: the victims
// are grouped by a counting sort over the sorted member addresses, not a
// map of slices.
func newDemandRef(tab *nsset.Interner, attacks []rsdos.Attack, before, after clock.Window, backs []clock.Day) (windows, days *demand) {
	n := tab.Len()
	// every member address of every NSSet, sorted and distinct
	size := 0
	for id := 0; id < n; id++ {
		size += tab.Key(nsset.ID(id)).Size()
	}
	addrs := make([]netx.Addr, 0, size)
	for id := 0; id < n; id++ {
		k := tab.Key(nsset.ID(id))
		for i := 0; i < k.Size(); i++ {
			addrs = append(addrs, k.Addr(i))
		}
	}
	slices.Sort(addrs)
	addrs = slices.Compact(addrs)

	// Each address's attack spans, in one array: first[j+2] counts
	// address j's attacks; the prefix sums make first[j+1] its write
	// cursor, which the fill leaves at the end of j's spans, so that
	// spans[first[j]:first[j+1]] are address j's. Its day ranges are
	// daySpans[first[j]*len(backs):first[j+1]*len(backs)].
	first := make([]int32, len(addrs)+2)
	for i := range attacks {
		if j, ok := slices.BinarySearch(addrs, attacks[i].Victim); ok {
			first[j+2]++
		}
	}
	for j := 2; j < len(first); j++ {
		first[j] += first[j-1]
	}
	spans := make([][2]int64, first[len(first)-1])
	daySpans := make([][2]int64, len(spans)*len(backs))
	for i := range attacks {
		a := &attacks[i]
		if j, ok := slices.BinarySearch(addrs, a.Victim); ok {
			at := first[j+1]
			lo, hi := a.StartWindow-before, a.EndWindow+after
			spans[at] = [2]int64{int64(lo), int64(hi)}
			for b, back := range backs {
				daySpans[int(at)*len(backs)+b] = [2]int64{int64(lo.Day() - back), int64(hi.Day() - back)}
			}
			first[j+1]++
		}
	}
	return fillDemandRef(tab, addrs, first, spans, 1), fillDemandRef(tab, addrs, first, daySpans, len(backs))
}

// fillDemand builds the demand in which every NSSet of tab holds the
// ranges of its member addresses: address j's are
// ranges[first[j]*per:first[j+1]*per].
func fillDemandRef(tab *nsset.Interner, addrs []netx.Addr, first []int32, ranges [][2]int64, per int) *demand {
	// memberRanges returns the ranges of the i-th member of k.
	memberRanges := func(k nsset.Key, i int) [][2]int64 {
		j, _ := slices.BinarySearch(addrs, k.Addr(i))
		return ranges[int(first[j])*per : int(first[j+1])*per]
	}
	d := &demand{ids: make([]idSpan, tab.Len())}
	words := 0
	for id := range d.ids {
		k := tab.Key(nsset.ID(id))
		lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
		for i := 0; i < k.Size(); i++ {
			for _, r := range memberRanges(k, i) {
				lo, hi = min(lo, r[0]), max(hi, r[1])
			}
		}
		if lo <= hi {
			d.ids[id] = idSpan{lo: lo, off: uint32(words), n: uint32(hi - lo + 1)}
			words += int(hi-lo)/64 + 1
		}
	}
	d.bits = make([]uint64, words)
	for id, s := range d.ids {
		k := tab.Key(nsset.ID(id))
		for i := 0; i < k.Size(); i++ {
			for _, r := range memberRanges(k, i) {
				setRange(d.bits[s.off:], uint64(r[0]-s.lo), uint64(r[1]-s.lo))
			}
		}
	}
	return d
}

// TestDemandMatchesReference holds the session's window and day demands
// to the reference's at metricsConfig, at benchmarkScaleConfig and over a
// hand-built table in which one address is in four NSSets (no generated
// world has an address in three). The session's demand is clipped to its
// run's days and the reference's is not: inside the run every (ID, unit)
// must answer as the reference does, outside it no unit is demanded, and
// a run that holds every unit gives the reference's demand word for word.
// Each session's demand is held so over its own run and, built again,
// over one day that an attack's span crosses; the hand-built table's over
// runs that attacks cross at both ends. At the benchmark's scale the
// window bits must fit in 64 kB.
func TestDemandMatchesReference(t *testing.T) {
	for _, cfg := range []Config{metricsConfig(), benchmarkScaleConfig()} {
		sess, err := NewSession(context.Background(), cfg, obs.New())
		if err != nil {
			t.Fatal(err)
		}
		before := clock.Window(cfg.WindowMarginBefore / clock.WindowDur)
		after := clock.Window(cfg.WindowMarginAfter / clock.WindowDur)
		backs := demandDaysBack[:]
		if b := clock.Day(cfg.Pipeline.BaselineDaysBack); b > 0 && !slices.Contains(backs, b) {
			backs = append(backs[:len(backs):len(backs)], b)
		}
		wantW, wantD := newDemandRef(sess.Engine.NSSetTable(), sess.Attacks, before, after, backs)
		name := fmt.Sprintf("%d domains", cfg.World.Domains)
		checkClipped(t, name, sess.windows, sess.days, wantW, wantD, cfg.FromDay, cfg.ToDay)
		if cfg.World.Domains == benchmarkScaleConfig().World.Domains {
			if b := 8 * len(sess.windows.bits); b > 64<<10 {
				t.Errorf("%s: the window demand holds %d bytes of bits, want at most 64 kB", name, b)
			}
		}
		// a run of one day, inside the demanded span of an attack that
		// spans three days or more: it starts before the run and ends
		// after it
		run := clock.Day(-1)
		for i := range sess.Attacks {
			a := &sess.Attacks[i]
			lo, hi := a.StartWindow-before, a.EndWindow+after
			if len(sess.index.NSSetsContaining(a.Victim)) > 0 && hi.Day()-lo.Day() >= 2 {
				run = lo.Day() + 1
				break
			}
		}
		name = fmt.Sprintf("%s, day %d", name, run)
		gotW, gotD := newDemand(sess.index, sess.Engine.NSSetTable().Len(), sess.Attacks, before, after, backs, run, run)
		checkClipped(t, name, gotW, gotD, wantW, wantD, run, run)
		crossesRun(t, name, sess.index, sess.Attacks, before, after, run, run)
	}

	tab := new(nsset.Interner)
	for _, set := range [][]netx.Addr{{1, 90}, {1, 40}, {1, 20, 30}, {1}, {5, 20}} {
		tab.Intern(set)
	}
	var attacks []rsdos.Attack
	for i, v := range []netx.Addr{1, 20, 1, 7, 90, 1, 5} {
		start := clock.Window(300*i - 500)
		attacks = append(attacks, rsdos.Attack{Victim: v, StartWindow: start, EndWindow: start + clock.Window(7*i)})
	}
	ix := everyIDIndex(tab)
	if n := len(ix.NSSetsContaining(1)); n != 4 {
		t.Fatalf("address 1 is in %d NSSets, want 4", n)
	}
	wantW, wantD := newDemandRef(tab, attacks, 72, 288, demandDaysBack[:])
	gotW, gotD := newDemand(ix, tab.Len(), attacks, 72, 288, demandDaysBack[:], -20, 20)
	if !reflect.DeepEqual(gotW, wantW) || !reflect.DeepEqual(gotD, wantD) {
		t.Errorf("over the hand-built table, a run holding every unit, the demand is %+v and %+v, the reference's %+v and %+v", gotW, gotD, wantW, wantD)
	}
	for _, run := range [][2]clock.Day{{0, 2}, {1, 3}, {0, 4}} {
		name := fmt.Sprintf("the hand-built table, days %d … %d", run[0], run[1])
		gotW, gotD := newDemand(ix, tab.Len(), attacks, 72, 288, demandDaysBack[:], run[0], run[1])
		checkClipped(t, name, gotW, gotD, wantW, wantD, run[0], run[1])
		crossesRun(t, name, ix, attacks, 72, 288, run[0], run[1])
	}
}

// checkClipped fails the test unless the demands windows and days answer
// as the unclipped wantW and wantD do for every ID (one past the table
// too) and every window and day of the run from … to, and hold no unit
// outside it: none of the ten days either side, nor a far one.
func checkClipped(t *testing.T, name string, windows, days, wantW, wantD *demand, from, to clock.Day) {
	t.Helper()
	first, last := from.FirstWindow(), (to+1).FirstWindow()-1
	for id := nsset.ID(0); int(id) <= len(wantW.ids); id++ {
		for w := first - 10*clock.Window(clock.WindowsPerDay); w <= last+10*clock.Window(clock.WindowsPerDay); w++ {
			want := first <= w && w <= last && wantW.has(id, int64(w))
			if got := windows.has(id, int64(w)); got != want {
				t.Fatalf("%s: (%d, window %d) kept = %v, want %v", name, id, w, got, want)
			}
		}
		for d := from - 10; d <= to+10; d++ {
			want := from <= d && d <= to && wantD.has(id, int64(d))
			if got := days.has(id, int64(d)); got != want {
				t.Fatalf("%s: (%d, day %d) swept = %v, want %v", name, id, d, got, want)
			}
		}
		for _, x := range []int64{-1 << 62, 1 << 62} {
			if windows.has(id, x) || days.has(id, x) {
				t.Fatalf("%s: far unit (%d, %d) is in the demand", name, id, x)
			}
		}
	}
}

// crossesRun fails the test unless an attack on a victim in one of ix's
// NSSets demands windows on both sides of the run's first day, and one on
// both sides of its last: the clip then cuts through a span at each end.
func crossesRun(t *testing.T, name string, ix *core.NSIndex, attacks []rsdos.Attack, before, after clock.Window, from, to clock.Day) {
	t.Helper()
	first, last := from.FirstWindow(), (to+1).FirstWindow()-1
	var early, late bool
	for i := range attacks {
		a := &attacks[i]
		if len(ix.NSSetsContaining(a.Victim)) == 0 {
			continue
		}
		lo, hi := a.StartWindow-before, a.EndWindow+after
		early = early || lo < first && first <= hi
		late = late || lo <= last && last < hi
	}
	if !early || !late {
		t.Errorf("%s: an attack crosses the run's first day: %v, its last: %v; want both", name, early, late)
	}
}
