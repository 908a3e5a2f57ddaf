package study

import (
	"context"
	"math"
	"reflect"
	"slices"
	"testing"

	"dnsddos/internal/clock"
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
// to the reference's, word for word, at metricsConfig, at
// benchmarkScaleConfig and over a hand-built table in which one address
// is in four NSSets (no generated world has an address in three).
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
		windows, days := newDemandRef(sess.Engine.NSSetTable(), sess.Attacks, before, after, backs)
		if !reflect.DeepEqual(sess.windows, windows) || !reflect.DeepEqual(sess.days, days) {
			t.Errorf("%d domains: the session's demand differs from the reference's", cfg.World.Domains)
		}
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
	gotW, gotD := newDemand(ix, tab.Len(), attacks, 72, 288, demandDaysBack[:])
	wantW, wantD := newDemandRef(tab, attacks, 72, 288, demandDaysBack[:])
	if !reflect.DeepEqual(gotW, wantW) || !reflect.DeepEqual(gotD, wantD) {
		t.Errorf("over the hand-built table the demand is %+v and %+v, the reference's %+v and %+v", gotW, gotD, wantW, wantD)
	}
}
