package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"dnsddos/internal/clock"
	"dnsddos/internal/dnsdb"
	"dnsddos/internal/netx"
	"dnsddos/internal/nsset"
	"dnsddos/internal/rsdos"
)

// buildWideWorld spreads providers across many /16s: provider i gets two
// nameservers in 10.i.0.0/16 and four domains.
func buildWideWorld(t *testing.T, providers int) (*dnsdb.DB, []netx.Addr, []nsset.Key) {
	t.Helper()
	db := dnsdb.New()
	addrs := make([]netx.Addr, 0, 2*providers)
	keys := make([]nsset.Key, 0, providers)
	for i := 0; i < providers; i++ {
		p := db.AddProvider(dnsdb.Provider{Name: fmt.Sprintf("P%03d", i)})
		a1 := netx.MustParseAddr(fmt.Sprintf("10.%d.0.10", i))
		a2 := netx.MustParseAddr(fmt.Sprintf("10.%d.0.20", i))
		var ids []dnsdb.NameserverID
		for _, a := range []netx.Addr{a1, a2} {
			id, err := db.AddNameserver(dnsdb.Nameserver{
				Addr: a, Provider: p, Sites: 1,
				CapacityPPS: 1e5, BaseRTT: 10 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		for j := 0; j < 4; j++ {
			db.AddDomain(dnsdb.Domain{Name: fmt.Sprintf("d%03d.example", i), NS: ids})
		}
		addrs = append(addrs, a1, a2)
		keys = append(keys, nsset.KeyOf([]netx.Addr{a1, a2}))
	}
	db.Freeze()
	return db, addrs, keys
}

// wideFeed is a feed of n attacks on buildWideWorld's nameservers, cycling
// through the addresses so that each recurs every 2·providers attacks in a
// later window, with every attack span measured: every attack emits one
// event.
func wideFeed(t *testing.T, providers, n int) (*dnsdb.DB, *nsset.Aggregator, []rsdos.Attack) {
	t.Helper()
	db, addrs, keys := buildWideWorld(t, providers)
	agg := nsset.NewAggregator()
	attacks := make([]rsdos.Attack, 0, n)
	for i := 0; i < n; i++ {
		j := i % len(addrs)
		aw := clock.Day(40+i%3).FirstWindow() + clock.Window(10*(i%7)+80*(i/len(addrs)))
		seedMeasurements(agg, keys[j/2], aw.Day(), 10*time.Millisecond, aw, 100*time.Millisecond, 8, 2)
		attacks = append(attacks, mkAttack(i+1, addrs[j], aw, aw+2, 53))
	}
	return db, agg, attacks
}

// TestConcurrentJoinsMatchLegacy is the race-detector workout for the
// join: four goroutines running EventsContext on the same pipeline at
// once — sharing the NS index and the aggregator. Every result must equal
// the legacy linear scan's.
func TestConcurrentJoinsMatchLegacy(t *testing.T) {
	const providers = 32
	db, addrs, keys := buildWideWorld(t, providers)
	agg := nsset.NewAggregator()

	attacks := make([]rsdos.Attack, 0, len(addrs))
	for i, a := range addrs {
		aw := clock.Day(40+i%3).FirstWindow() + clock.Window(10*(i%7))
		seedMeasurements(agg, keys[i/2], aw.Day(), 10*time.Millisecond, aw, 100*time.Millisecond, 8, 2)
		attacks = append(attacks, mkAttack(i+1, a, aw, aw+2, 53))
	}

	want, err := NewPipeline(db, WithDayStore(agg)).eventsLegacy(context.Background(), attacks)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) < providers {
		t.Fatalf("legacy join produced %d events; the comparison would be thin", len(want))
	}

	indexed := NewPipeline(db, WithDayStore(agg))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := indexed.EventsContext(context.Background(), attacks)
			if err != nil {
				t.Errorf("indexed join: %v", err)
				return
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("indexed join diverged from legacy: %d vs %d events", len(got), len(want))
			}
		}()
	}
	wg.Wait()
}

// TestJoinCancelledBeforeStart: a join whose context is already cancelled
// returns context.Canceled and no event.
func TestJoinCancelledBeforeStart(t *testing.T) {
	db, agg, attacks := wideFeed(t, 16, 32)
	p := NewPipeline(db, WithDayStore(agg))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if got, err := p.EventsContext(ctx, attacks); err != context.Canceled || len(got) != 0 {
		t.Fatalf("cancelled join = %d events, error %v; want none and context.Canceled", len(got), err)
	}
}

// cancellingStore is a DayStore that cancels a context on its at-th
// ranged window read.
type cancellingStore struct {
	DayStore
	reads, at int
	cancel    context.CancelFunc
}

func (s *cancellingStore) AppendWindows(dst []nsset.WindowMetrics, k nsset.Key, from, to clock.Window) []nsset.WindowMetrics {
	if s.reads++; s.reads == s.at {
		s.cancel()
	}
	return s.DayStore.AppendWindows(dst, k, from, to)
}

// TestCancelledJoinReturnsPrefix: a join cancelled part way returns
// context.Canceled and a strict prefix, in order, of the events the
// uncancelled join emits — wherever in the feed the cancel lands.
func TestCancelledJoinReturnsPrefix(t *testing.T) {
	db, agg, attacks := wideFeed(t, 64, 512)
	full, err := NewPipeline(db, WithDayStore(agg)).EventsContext(context.Background(), attacks)
	if err != nil || len(full) != len(attacks) {
		t.Fatalf("uncancelled join: %d events, err %v; want %d", len(full), err, len(attacks))
	}
	for _, at := range []int{1, 63, 64, 100, 300} {
		ctx, cancel := context.WithCancel(context.Background())
		store := &cancellingStore{DayStore: agg, at: at, cancel: cancel}
		got, err := NewPipeline(db, WithDayStore(store)).EventsContext(ctx, attacks)
		cancel()
		if err != context.Canceled {
			t.Errorf("cancel at read %d: error %v, want context.Canceled", at, err)
		}
		if len(got) < at || len(got) >= len(full) || !reflect.DeepEqual(got, full[:len(got)]) {
			t.Errorf("cancel at read %d returned %d events; want a strict prefix of the full join's %d", at, len(got), len(full))
		}
	}
}

// TestJoinFeedPermutation is metamorphic: joining a permutation of the
// feed gives the original join's events regrouped in the permuted order —
// for each attack in the new order, its events in NSSet order. In both
// feeds victims recur, so the classification memo's first sighting of a
// victim moves with the permutation; in the second, one victim sits in two
// NSSets.
func TestJoinFeedPermutation(t *testing.T) {
	db, agg, wide := wideFeed(t, 16, 96)
	// victims that are not DNS infrastructure, recurring too
	for i := 0; i < 24; i++ {
		aw := clock.Day(40).FirstWindow() + clock.Window(i)
		wide = append(wide, mkAttack(1000+i, netx.MustParseAddr(fmt.Sprintf("192.0.2.%d", i%5)), aw, aw+2, 80))
	}

	twoDB := dnsdbTwoSets(t)
	twoAgg := nsset.NewAggregator()
	shared := netx.MustParseAddr("10.0.0.1")
	var two []rsdos.Attack
	for i, v := range []string{"10.0.0.1", "10.0.1.1", "10.0.0.1", "10.0.2.1", "10.0.0.1", "10.0.1.1", "10.0.0.1"} {
		aw := clock.Day(40).FirstWindow() + clock.Window(20*i)
		for _, other := range []string{"10.0.1.1", "10.0.2.1"} {
			k := nsset.KeyOf([]netx.Addr{shared, netx.MustParseAddr(other)})
			seedMeasurements(twoAgg, k, aw.Day(), 10*time.Millisecond, aw, 30*time.Millisecond, 6, 1)
		}
		two = append(two, mkAttack(i+1, netx.MustParseAddr(v), aw, aw+2, 53))
	}

	for _, tc := range []struct {
		name   string
		p      *Pipeline
		feed   []rsdos.Attack
		events int
	}{
		{"wide", NewPipeline(db, WithDayStore(agg)), wide, 96},
		{"two-sets", NewPipeline(twoDB, WithDayStore(twoAgg)), two, 11},
	} {
		base := tc.p.Events(tc.feed)
		if len(base) != tc.events {
			t.Fatalf("%s: the original join emits %d events, want %d", tc.name, len(base), tc.events)
		}
		byAttack := map[int32][]Event{}
		for _, e := range base {
			byAttack[e.Attack.ID] = append(byAttack[e.Attack.ID], e)
		}
		for seed := int64(1); seed <= 8; seed++ {
			perm := slices.Clone(tc.feed)
			rand.New(rand.NewSource(seed)).Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			var want []Event
			for _, a := range perm {
				want = append(want, byAttack[a.ID]...)
			}
			if got := tc.p.Events(perm); !reflect.DeepEqual(got, want) {
				t.Errorf("%s, seed %d: the permuted feed's join (%d events) is not the original's regrouped (%d)", tc.name, seed, len(got), len(want))
			}
		}
	}
}

// TestRefilledFeedJoinsFresh: a caller that overwrites a feed slice in
// place between two joins on one pipeline gets the join of the feed as it
// is now — nothing is carried over from an earlier join over the same
// slice.
func TestRefilledFeedJoinsFresh(t *testing.T) {
	db, _, keys := buildWideWorld(t, 2)
	agg := nsset.NewAggregator()
	aw := clock.Day(40).FirstWindow()
	for _, k := range keys {
		seedMeasurements(agg, k, aw.Day(), 10*time.Millisecond, aw, 100*time.Millisecond, 8, 2)
	}
	feed := []rsdos.Attack{mkAttack(1, netx.MustParseAddr("10.0.0.10"), aw, aw+2, 53)}
	p := NewPipeline(db, WithDayStore(agg))
	if ev := p.Events(feed); len(ev) != 1 || ev[0].NSSet != keys[0] {
		t.Fatalf("first join: %d events, want one on %v", len(ev), keys[0])
	}

	feed[0] = mkAttack(2, netx.MustParseAddr("10.1.0.10"), aw, aw+2, 53)
	got := p.Events(feed)
	want := NewPipeline(db, WithDayStore(agg)).Events(feed)
	if len(want) != 1 || want[0].NSSet != keys[1] {
		t.Fatalf("fresh pipeline: %d events, want one on %v", len(want), keys[1])
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("join of the refilled feed = %+v, want a fresh pipeline's %+v", got, want)
	}
}

// refusingStore is a DayStore one of whose reads refuses the way
// daystore.Set refuses a corrupt day file: by panicking with an error.
type refusingStore struct {
	DayStore
	refusal         error
	refuseBaselines bool // else the ranged window read refuses
}

func (s refusingStore) Baseline(k nsset.Key, d clock.Day) (nsset.DayBaseline, bool) {
	if s.refuseBaselines {
		panic(s.refusal)
	}
	return s.DayStore.Baseline(k, d)
}

func (s refusingStore) AppendWindows(dst []nsset.WindowMetrics, k nsset.Key, from, to clock.Window) []nsset.WindowMetrics {
	if !s.refuseBaselines {
		panic(s.refusal)
	}
	return s.DayStore.AppendWindows(dst, k, from, to)
}

// TestStoreRefusalReachesCaller: a store that refuses a day panics at the
// join's first read of it — at the snapshot-day baseline, or, when only
// the attack day's file is bad, at the ranged window read. The refusal
// must reach the calling goroutine, where a caller can recover it; on any
// other goroutine it would kill the process. That is the contract written
// in daystore.go.
func TestStoreRefusalReachesCaller(t *testing.T) {
	db, addrs, keys := buildWideWorld(t, 8)
	agg := nsset.NewAggregator()
	attacks := make([]rsdos.Attack, 0, len(addrs))
	for i, a := range addrs {
		aw := clock.Day(40).FirstWindow() + clock.Window(10*i)
		seedMeasurements(agg, keys[i/2], aw.Day(), 10*time.Millisecond, aw, 100*time.Millisecond, 8, 2)
		attacks = append(attacks, mkAttack(i+1, a, aw, aw+2, 53))
	}
	refusal := errors.New("day file refused")
	for _, atBaseline := range []bool{true, false} {
		t.Run(fmt.Sprintf("EventsContext/baseline=%v", atBaseline), func(t *testing.T) {
			p := NewPipeline(db, WithDayStore(refusingStore{agg, refusal, atBaseline}))
			defer func() {
				if r := recover(); r != refusal {
					t.Fatalf("recovered %v, want the store's refusal", r)
				}
			}()
			p.EventsContext(context.Background(), attacks)
			t.Fatal("join over a refusing store returned")
		})
	}
}
