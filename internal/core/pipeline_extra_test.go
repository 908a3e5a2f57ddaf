package core

import (
	"testing"
	"time"

	"dnsddos/internal/clock"
	"dnsddos/internal/dnsdb"
	"dnsddos/internal/netx"
	"dnsddos/internal/nsset"
	"dnsddos/internal/rsdos"
)

func TestTopIPsLabels(t *testing.T) {
	w := buildWorld(t)
	p := NewPipeline(w.db, WithCensus(w.census), WithTopology(w.topo), WithOpenResolvers(w.open))
	attacks := []rsdos.Attack{
		mkAttack(1, netx.MustParseAddr("8.8.8.8"), 10, 12, 53),
		mkAttack(2, netx.MustParseAddr("8.8.8.8"), 30, 31, 53),
		mkAttack(3, w.vulnNS[0], 50, 51, 53),
		mkAttack(4, netx.MustParseAddr("120.0.0.1"), 60, 61, 80), // non-DNS: excluded
	}
	rows := p.TopIPs(p.Classify(attacks), 10)
	if len(rows) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].IP != netx.MustParseAddr("8.8.8.8") || rows[0].Attacks != 2 {
		t.Errorf("top row = %+v", rows[0])
	}
	if rows[0].Type != "open resolver (Google)" {
		t.Errorf("open resolver label = %q", rows[0].Type)
	}
	if rows[1].Type != "Vuln" {
		t.Errorf("provider label = %q", rows[1].Type)
	}
	// truncation
	if got := p.TopIPs(p.Classify(attacks), 1); len(got) != 1 {
		t.Errorf("truncated rows = %d", len(got))
	}
}

func TestMonthlyAffectedDomainsUnique(t *testing.T) {
	w := buildWorld(t)
	p := NewPipeline(w.db, WithCensus(w.census), WithTopology(w.topo), WithOpenResolvers(w.open))
	// two attacks on the same NSSet in one month: domains counted once
	novW := clock.WindowOf(time.Date(2020, 11, 10, 0, 0, 0, 0, time.UTC))
	attacks := []rsdos.Attack{
		mkAttack(1, w.vulnNS[0], novW, novW+2, 53),
		mkAttack(2, w.vulnNS[1], novW+100, novW+102, 53),
	}
	counts := p.MonthlyAffectedDomains(p.Classify(attacks))
	nov := clock.Month{Year: 2020, Month: time.November}
	if counts[nov] != 10 {
		t.Errorf("unique affected domains = %d, want 10 (both NSs host the same 10)", counts[nov])
	}
}

func TestSeriesFor(t *testing.T) {
	w := buildWorld(t)
	agg := nsset.NewAggregator()
	base := clock.Day(40).Start()
	agg.Add(w.vulnKey, base.Add(10*time.Minute), nsset.StatusOK, 10*time.Millisecond)
	agg.Add(w.vulnKey, base.Add(12*time.Minute), nsset.StatusTimeout, 0)
	agg.Add(w.vulnKey, base.Add(40*time.Minute), nsset.StatusOK, 30*time.Millisecond)
	p := NewPipeline(w.db, WithDayStore(agg), WithCensus(w.census), WithTopology(w.topo), WithOpenResolvers(w.open))
	series := p.SeriesFor(w.vulnKey, base, base.Add(time.Hour))
	if len(series) != 2 {
		t.Fatalf("series = %+v", series)
	}
	first := series[0]
	if first.Domains != 2 || first.Timeouts != 1 || first.AvgRTT != 10*time.Millisecond || first.Failures != 0.5 {
		t.Errorf("first sample = %+v", first)
	}
	if series[1].AvgRTT != 30*time.Millisecond {
		t.Errorf("second sample = %+v", series[1])
	}
	// outside the range: empty
	if got := p.SeriesFor(w.vulnKey, base.Add(2*time.Hour), base.Add(3*time.Hour)); len(got) != 0 {
		t.Errorf("out-of-range series = %d samples", len(got))
	}
}

func TestNSSetsContainingAndCounts(t *testing.T) {
	w := buildWorld(t)
	p := NewPipeline(w.db, WithCensus(w.census), WithTopology(w.topo), WithOpenResolvers(w.open))
	sets := p.ix.NSSetsContaining(w.vulnNS[0])
	if len(sets) != 1 || p.ix.Key(sets[0]) != w.vulnKey {
		t.Errorf("NSSetsContaining = %v", sets)
	}
	if got := p.ix.DomainCount(sets[0]); got != 10 {
		t.Errorf("DomainCount = %d", got)
	}
	if got := p.ix.NSSetsContaining(99); len(got) != 0 {
		t.Errorf("an address no NSSet holds is in %v", got)
	}
}

func TestEventMultipleNSSetsPerNameserver(t *testing.T) {
	// a nameserver shared by two different NSSets joins into two events
	db := dnsdbTwoSets(t)
	shared := netx.MustParseAddr("10.0.0.1")
	agg := nsset.NewAggregator()
	attackW := clock.Day(40).FirstWindow()
	k1 := nsset.KeyOf([]netx.Addr{shared, netx.MustParseAddr("10.0.1.1")})
	k2 := nsset.KeyOf([]netx.Addr{shared, netx.MustParseAddr("10.0.2.1")})
	seedMeasurements(agg, k1, attackW.Day(), 10*time.Millisecond, attackW, 20*time.Millisecond, 6, 0)
	seedMeasurements(agg, k2, attackW.Day(), 10*time.Millisecond, attackW, 40*time.Millisecond, 6, 0)
	p := NewPipeline(db, WithDayStore(agg))
	events := p.Events([]rsdos.Attack{mkAttack(1, shared, attackW, attackW+2, 53)})
	if len(events) != 2 {
		t.Fatalf("events = %d, want one per NSSet containing the victim", len(events))
	}
	if events[0].NSSet == events[1].NSSet {
		t.Error("events should cover distinct NSSets")
	}
}

func dnsdbTwoSets(t *testing.T) *dnsdb.DB {
	t.Helper()
	db := dnsdb.New()
	pid := db.AddProvider(dnsdb.Provider{Name: "P"})
	add := func(addr string) dnsdb.NameserverID {
		id, err := db.AddNameserver(dnsdb.Nameserver{
			Addr: netx.MustParseAddr(addr), Provider: pid, BaseRTT: 5 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	shared := add("10.0.0.1")
	a := add("10.0.1.1")
	b := add("10.0.2.1")
	for i := 0; i < 3; i++ {
		db.AddDomain(dnsdb.Domain{Name: "x.example", NS: []dnsdb.NameserverID{shared, a}})
		db.AddDomain(dnsdb.Domain{Name: "y.example", NS: []dnsdb.NameserverID{shared, b}})
	}
	db.Freeze()
	return db
}
