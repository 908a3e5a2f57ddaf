package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"dnsddos/internal/clock"
	"dnsddos/internal/dnsdb"
	"dnsddos/internal/netx"
	"dnsddos/internal/nsset"
	"dnsddos/internal/rsdos"
)

// buildWideWorld spreads providers across many /16s so the /16-sharded
// join actually fans out: provider i gets two nameservers in 10.i.0.0/16
// and four domains.
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

// TestShardedJoinMatchesLegacyConcurrent is the race-detector workout
// for the sharded engine: many shards (one per victim at shardBits=32),
// a worker pool wider than GOMAXPROCS, and four goroutines running
// EventsContext on the same pipeline at once — sharing the NS index and
// the aggregator. Every result must equal the legacy linear scan's.
func TestShardedJoinMatchesLegacyConcurrent(t *testing.T) {
	const providers = 32
	db, addrs, keys := buildWideWorld(t, providers)
	agg := nsset.NewAggregator()

	attacks := make([]rsdos.Attack, 0, len(addrs))
	for i, a := range addrs {
		aw := clock.Day(40+i%3).FirstWindow() + clock.Window(10*(i%7))
		seedMeasurements(agg, keys[i/2], aw.Day(), 10*time.Millisecond, aw, 100*time.Millisecond, 8, 2)
		attacks = append(attacks, mkAttack(i+1, a, aw, aw+2, 53))
	}

	want, err := NewPipeline(db, WithAggregator(agg)).eventsLegacy(context.Background(), attacks)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) < providers {
		t.Fatalf("legacy join produced %d events; the comparison would be thin", len(want))
	}

	indexed := NewPipeline(db, WithAggregator(agg), withJoinWorkers(8), WithShardBits(32))
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

// TestShardedJoinCancellation: cancelling mid-join returns ctx.Err()
// without deadlocking the worker pool (the race detector guards the
// shutdown path).
func TestShardedJoinCancellation(t *testing.T) {
	db, addrs, keys := buildWideWorld(t, 16)
	agg := nsset.NewAggregator()
	attacks := make([]rsdos.Attack, 0, len(addrs))
	for i, a := range addrs {
		aw := clock.Day(40).FirstWindow() + clock.Window(i)
		seedMeasurements(agg, keys[i/2], aw.Day(), 10*time.Millisecond, aw, 50*time.Millisecond, 8, 2)
		attacks = append(attacks, mkAttack(i+1, a, aw, aw+2, 53))
	}
	p := NewPipeline(db, WithAggregator(agg), withJoinWorkers(4), WithShardBits(32))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.EventsContext(ctx, attacks); err != context.Canceled {
		t.Fatalf("cancelled join error = %v, want context.Canceled", err)
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

// TestStoreRefusalReachesCaller: the day store is first read inside the
// shard workers, so a store that refuses a day panics there — at the
// snapshot-day baseline, or, when only the attack day's file is bad, at
// the ranged window read. The join must re-raise that refusal on the
// calling goroutine, where a supervised run recovers it (distjoin's
// joinRangeIsolated) — left in a worker goroutine it would kill the
// process. Both entry points hold the contract written in daystore.go.
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
	joins := map[string]func(p *Pipeline){
		"EventsContext":  func(p *Pipeline) { p.EventsContext(context.Background(), attacks) },
		"JoinShardRange": func(p *Pipeline) { p.JoinShardRange(context.Background(), attacks, 0, p.JoinShardCount(attacks)) },
	}
	for name, join := range joins {
		for _, atBaseline := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/baseline=%v", name, atBaseline), func(t *testing.T) {
				p := NewPipeline(db, WithDayStore(refusingStore{agg, refusal, atBaseline}), withJoinWorkers(4), WithShardBits(32))
				defer func() {
					if r := recover(); r != refusal {
						t.Fatalf("recovered %v, want the store's refusal", r)
					}
				}()
				join(p)
				t.Fatal("join over a refusing store returned")
			})
		}
	}
}
