package openintel

import (
	"bytes"
	"context"
	"errors"
	"math/rand/v2"
	"reflect"
	"runtime"
	"testing"
	"time"

	"dnsddos/internal/attacksim"
	"dnsddos/internal/clock"
	"dnsddos/internal/dnsdb"
	"dnsddos/internal/netx"
	"dnsddos/internal/nsset"
	"dnsddos/internal/resolver"
	"dnsddos/internal/scenario"
	"dnsddos/internal/simnet"
)

func testWorld(t *testing.T, domains int) (*dnsdb.DB, *resolver.Resolver) {
	t.Helper()
	db := dnsdb.New()
	pid := db.AddProvider(dnsdb.Provider{Name: "P"})
	var ids []dnsdb.NameserverID
	for i := 0; i < 3; i++ {
		id, err := db.AddNameserver(dnsdb.Nameserver{
			Addr: netx.Addr(0x0a000001 + i*256), Provider: pid,
			CapacityPPS: 1e5, BaseRTT: 10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i := 0; i < domains; i++ {
		db.AddDomain(dnsdb.Domain{Name: "d" + string(rune('a'+i%26)) + ".example", NS: ids})
	}
	db.Freeze()
	net := simnet.New(simnet.DefaultParams(), db, attacksim.NewSchedule(nil))
	return db, resolver.New(resolver.DefaultConfig(), db, net)
}

func TestRunDayMeasuresEveryDomainOnce(t *testing.T) {
	db, res := testWorld(t, 40)
	e := NewEngine(db, res, 1)
	counts := map[dnsdb.DomainID]int{}
	e.RunDayContext(context.Background(), 5, nil, func(r Record) { counts[r.Domain]++ })
	if len(counts) != 40 {
		t.Fatalf("measured %d domains, want 40", len(counts))
	}
	for d, n := range counts {
		if n != 1 {
			t.Errorf("domain %d measured %d times", d, n)
		}
	}
}

func TestRunDayTimesInsideDayAndOrdered(t *testing.T) {
	db, res := testWorld(t, 60)
	e := NewEngine(db, res, 2)
	day := clock.Day(10)
	var prev time.Time
	e.RunDayContext(context.Background(), day, nil, func(r Record) {
		if r.Time.Before(day.Start()) || !r.Time.Before(day.End()) {
			t.Fatalf("measurement at %v outside day %v", r.Time, day)
		}
		if r.Time.Before(prev) {
			t.Fatal("records not in time order")
		}
		prev = r.Time
	})
}

func TestSlotsStableAcrossDays(t *testing.T) {
	db, res := testWorld(t, 10)
	e := NewEngine(db, res, 3)
	times := map[dnsdb.DomainID][2]time.Duration{}
	e.RunDayContext(context.Background(), 0, nil, func(r Record) {
		v := times[r.Domain]
		v[0] = r.Time.Sub(clock.Day(0).Start())
		times[r.Domain] = v
	})
	e.RunDayContext(context.Background(), 1, nil, func(r Record) {
		v := times[r.Domain]
		v[1] = r.Time.Sub(clock.Day(1).Start())
		times[r.Domain] = v
	})
	for d, v := range times {
		if v[0] != v[1] {
			t.Errorf("domain %d slot moved: %v vs %v", d, v[0], v[1])
		}
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	db, res := testWorld(t, 30)
	run := func() []Record {
		e := NewEngine(db, res, 7)
		var out []Record
		e.RunDayContext(context.Background(), 3, nil, func(r Record) { out = append(out, r) })
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestAggregatorIntegration(t *testing.T) {
	db, res := testWorld(t, 50)
	e := NewEngine(db, res, 4)
	agg := nsset.NewAggregator()
	e.RunRangeContext(context.Background(), 0, 1, agg, nil)
	k := e.NSSetOf(0)
	b, ok := agg.Baseline(k, 0)
	if !ok || b.Domains != 50 {
		t.Fatalf("baseline = %+v, want 50 domains", b)
	}
	if b.AvgRTT() < 5*time.Millisecond || b.AvgRTT() > 30*time.Millisecond {
		t.Errorf("baseline RTT = %v", b.AvgRTT())
	}
}

func TestRunDayContextCancelled(t *testing.T) {
	db, res := testWorld(t, 50)
	e := NewEngine(db, res, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n := 0
	err := e.RunDayContext(ctx, 0, nil, func(Record) { n++ })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n != 0 {
		t.Errorf("measured %d domains after cancellation", n)
	}
}

func TestRunDayContextMidSweepCancel(t *testing.T) {
	// cancel after the first ctx-check stride: the sweep must stop well
	// short of the full domain list
	db, res := testWorld(t, 3000)
	e := NewEngine(db, res, 9)
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	err := e.RunDayContext(ctx, 0, nil, func(Record) {
		n++
		if n == 10 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n >= 3000 {
		t.Errorf("sweep ran to completion despite cancellation")
	}
}

func TestRunRangeContextStopsAtCancelledDay(t *testing.T) {
	db, res := testWorld(t, 20)
	e := NewEngine(db, res, 10)
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	err := e.RunRangeContext(ctx, 0, 5, nil, func(Record) {
		n++
		cancel()
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n >= 20*6 {
		t.Errorf("range sweep ran all %d measurements despite cancellation", n)
	}
}

func TestNSSetOfConsistent(t *testing.T) {
	db, res := testWorld(t, 5)
	e := NewEngine(db, res, 5)
	want := nsset.KeyOf(db.NSAddrs(0))
	for d := 0; d < 5; d++ {
		if e.NSSetOf(dnsdb.DomainID(d)) != want {
			t.Errorf("domain %d NSSet differs", d)
		}
	}
}

func TestMeasureAtRecordsOutcome(t *testing.T) {
	db, res := testWorld(t, 5)
	e := NewEngine(db, res, 6)
	rng := rand.New(rand.NewPCG(1, 1))
	rec := e.MeasureAt(rng, 2, clock.StudyStart.Add(time.Hour))
	if rec.Domain != 2 || rec.Status != nsset.StatusOK || rec.RTT <= 0 || rec.Tries != 1 {
		t.Errorf("record = %+v", rec)
	}
}

func TestRecordWriterReadRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewRecordWriter(&buf)
	recs := []Record{
		{Domain: 1, Time: clock.StudyStart.Add(time.Hour), NSSet: nsset.KeyOf([]netx.Addr{1}), Status: nsset.StatusOK, RTT: 12 * time.Millisecond, Tries: 1},
		{Domain: 2, Time: clock.StudyStart.Add(2 * time.Hour), NSSet: nsset.KeyOf([]netx.Addr{1}), Status: nsset.StatusTimeout, Tries: 3},
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	var got []RecordJSON
	if err := ReadRecords(&buf, func(r RecordJSON) error { got = append(got, r); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("read %d records", len(got))
	}
	if got[0].Domain != 1 || got[0].Status != "OK" || got[0].RTTus != 12000 {
		t.Errorf("record 0 = %+v", got[0])
	}
	if got[1].Status != "TIMEOUT" || got[1].Tries != 3 {
		t.Errorf("record 1 = %+v", got[1])
	}
}

// sweepFixture generates a world of the given size with the standard
// attack mix and case studies, and returns an engine over it, the
// retained-window filter a study session would hand its aggregators (every
// window from 6 h before to 24 h after an attack on a nameserver address)
// and a day inside the December TransIP attack, when that filter retains
// windows and the data plane has load to compute.
func sweepFixture(tb testing.TB, domains int) (*Engine, func(clock.Window) bool, clock.Day) {
	tb.Helper()
	wcfg := scenario.DefaultWorldConfig()
	wcfg.Domains, wcfg.GenericProviders = domains, 40
	w := scenario.GenerateWorld(wcfg)
	acfg := scenario.DefaultAttackConfig()
	acfg.TotalAttacks = 6000
	sched := scenario.GenerateSchedule(acfg, w)
	net := simnet.New(simnet.DefaultParams(), w.DB, sched.Sched, sched.Blackouts...)
	e := NewEngine(w.DB, resolver.New(resolver.DefaultConfig(), w.DB, net), 1)

	keep := make(map[clock.Window]struct{})
	nsAddrs := w.DB.AllNSAddrs()
	for _, s := range sched.Sched.Specs() {
		if _, ok := nsAddrs[s.Target]; !ok {
			continue
		}
		for win := clock.WindowOf(s.Start) - 72; win <= clock.WindowOf(s.End)+288; win++ {
			keep[win] = struct{}{}
		}
	}
	filter := func(win clock.Window) bool { _, ok := keep[win]; return ok }
	return e, filter, clock.DayOf(sched.CaseStudies.TransIPDecStart)
}

// TestSweepDayAllocsPerRecord guards the record path end to end: a day's
// sweep into a filtered aggregator over the engine's table allocates for
// the day table it builds (the rows in one slice, a slab block per up to
// 256 windows), not per record, per NSSet or per window; one allocation
// per Resolve, per row or per retained window puts the figure past the
// bound.
func TestSweepDayAllocsPerRecord(t *testing.T) {
	e, filter, day := sweepFixture(t, 20000)
	var agg *nsset.Aggregator
	allocs := testing.AllocsPerRun(2, func() {
		agg = nsset.NewAggregatorOver(e.NSSetTable())
		agg.SetWindowFilter(filter)
		if err := e.RunDayContext(context.Background(), day, agg, nil); err != nil {
			t.Fatal(err)
		}
	})
	windows, rows := len(agg.Snapshot().Windows), len(agg.Keys())
	if windows == 0 {
		t.Fatal("the filter retained no window: the guard would not see the window path")
	}
	records := float64(len(e.slot))
	t.Logf("%.0f allocations for %.0f records (%d rows, %d windows retained)", allocs, records, rows, windows)
	if limit := float64(rows) / 2; allocs >= limit {
		t.Errorf("%.0f allocations for a day of %d rows, want < %.0f", allocs, rows, limit)
	}
	if per := allocs / records; per >= 0.005 {
		t.Errorf("%.4f allocations per record, want < 0.005", per)
	}
}

// TestSweepByIDMatchesByKey: a sweep into an aggregator over the engine's
// table (records added by ID) and one into an aggregator with a table of
// its own (by key) measure the same day.
func TestSweepByIDMatchesByKey(t *testing.T) {
	e, filter, day := sweepFixture(t, 2000)
	byID, byKey := nsset.NewAggregatorOver(e.NSSetTable()), nsset.NewAggregator()
	for _, agg := range []*nsset.Aggregator{byID, byKey} {
		agg.SetWindowFilter(filter)
		if err := e.RunDayContext(context.Background(), day, agg, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := byID.Snapshot(), byKey.Snapshot(); len(want.Windows) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("by-ID sweep holds %d windows / %d baselines, by-key sweep %d / %d, or their values differ",
			len(got.Windows), len(got.Baselines), len(want.Windows), len(want.Baselines))
	}
}

var benchSink *nsset.Aggregator

// BenchmarkRunDay is the record path's smoke and stopwatch: one day's
// sweep of a 2 000-domain generated world under attack into a filtered
// aggregator, the unit of work of a study's day shard.
func BenchmarkRunDay(b *testing.B) {
	e, filter, day := sweepFixture(b, 2000)
	records := float64(len(e.slot))
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = nsset.NewAggregatorOver(e.NSSetTable())
		benchSink.SetWindowFilter(filter)
		if err := e.RunDayContext(context.Background(), day, benchSink, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/records, "ns/record")
	b.ReportMetric(float64(ms.Mallocs-mallocs)/float64(b.N)/records, "allocs/record")
}
