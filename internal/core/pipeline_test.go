package core

import (
	"runtime"
	"testing"
	"time"

	"dnsddos/internal/anycast"
	"dnsddos/internal/astopo"
	"dnsddos/internal/clock"
	"dnsddos/internal/dnsdb"
	"dnsddos/internal/netx"
	"dnsddos/internal/nsset"
	"dnsddos/internal/openres"
	"dnsddos/internal/packet"
	"dnsddos/internal/rsdos"
)

// world builds a fixed miniature ecosystem:
//   - provider "Vuln" with 2 unicast NSs in one /24 hosting 10 domains
//   - provider "Big" with 2 anycast NSs in two /24s hosting 20 domains
//   - 8.8.8.8 as an open resolver with 2 misconfigured domains
type world struct {
	db      *dnsdb.DB
	topo    *astopo.Table
	census  *anycast.Census
	open    *openres.List
	vulnNS  []netx.Addr
	bigNS   []netx.Addr
	vulnKey nsset.Key
	bigKey  nsset.Key
}

func buildWorld(t *testing.T) *world {
	t.Helper()
	w := &world{db: dnsdb.New(), open: openres.WellKnown()}
	tb := astopo.NewBuilder()

	vuln := w.db.AddProvider(dnsdb.Provider{Name: "Vuln"})
	big := w.db.AddProvider(dnsdb.Provider{Name: "Big"})
	google := w.db.AddProvider(dnsdb.Provider{Name: "Google"})

	addNS := func(p dnsdb.ProviderID, addr string, anycast bool) dnsdb.NameserverID {
		a := netx.MustParseAddr(addr)
		sites := 1
		if anycast {
			sites = 20
		}
		id, err := w.db.AddNameserver(dnsdb.Nameserver{
			Addr: a, Provider: p, Anycast: anycast, Sites: sites,
			CapacityPPS: 1e5, BaseRTT: 10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	v1 := addNS(vuln, "192.0.2.10", false)
	v2 := addNS(vuln, "192.0.2.20", false)
	b1 := addNS(big, "198.51.100.1", true)
	b2 := addNS(big, "198.51.101.1", true)
	g := addNS(google, "8.8.8.8", true)

	w.vulnNS = []netx.Addr{netx.MustParseAddr("192.0.2.10"), netx.MustParseAddr("192.0.2.20")}
	w.bigNS = []netx.Addr{netx.MustParseAddr("198.51.100.1"), netx.MustParseAddr("198.51.101.1")}
	w.vulnKey = nsset.KeyOf(w.vulnNS)
	w.bigKey = nsset.KeyOf(w.bigNS)

	for i := 0; i < 10; i++ {
		w.db.AddDomain(dnsdb.Domain{Name: "v.example", NS: []dnsdb.NameserverID{v1, v2}})
	}
	for i := 0; i < 20; i++ {
		w.db.AddDomain(dnsdb.Domain{Name: "b.example", NS: []dnsdb.NameserverID{b1, b2}})
	}
	for i := 0; i < 2; i++ {
		w.db.AddDomain(dnsdb.Domain{Name: "m.example", NS: []dnsdb.NameserverID{g}})
	}
	w.db.Freeze()

	tb.Announce(netx.MustParsePrefix("192.0.2.0/24"), 64500)
	tb.SetOrg(64500, astopo.Org{Name: "Vuln"})
	tb.Announce(netx.MustParsePrefix("198.51.100.0/24"), 64501)
	tb.Announce(netx.MustParsePrefix("198.51.101.0/24"), 64502)
	tb.SetOrg(64501, astopo.Org{Name: "Big"})
	tb.Announce(netx.MustParsePrefix("8.8.8.0/24"), 15169)
	tb.SetOrg(15169, astopo.Org{Name: "Google"})
	w.topo = tb.Build()

	w.census = anycast.NewCensus(anycast.NewSnapshot(clock.StudyStart, []netx.Prefix{
		netx.MustParsePrefix("198.51.100.0/24"),
		netx.MustParsePrefix("198.51.101.0/24"),
		netx.MustParsePrefix("8.8.8.0/24"),
	}))
	return w
}

func mkAttack(id int, victim netx.Addr, startW, endW clock.Window, port uint16) rsdos.Attack {
	return rsdos.Attack{
		ID: int32(id), Victim: victim, StartWindow: startW, EndWindow: endW,
		Proto: packet.ProtoTCP, FirstPort: port, UniquePorts: 1,
		TotalPackets: 1000, PeakPPM: 500, MaxSlash16: 100, UniqueDsts: 900,
	}
}

// seedMeasurements populates baselines for day d-1 and window metrics in
// the attack windows.
func seedMeasurements(agg *nsset.Aggregator, k nsset.Key, day clock.Day, baseRTT time.Duration, attackW clock.Window, attackRTT time.Duration, okN, toN int) {
	prev := day.Prev().Start()
	for i := 0; i < 10; i++ {
		agg.Add(k, prev.Add(time.Duration(i)*time.Hour), nsset.StatusOK, baseRTT)
	}
	mid := attackW.Start().Add(time.Minute)
	for i := 0; i < okN; i++ {
		agg.Add(k, mid, nsset.StatusOK, attackRTT)
	}
	for i := 0; i < toN; i++ {
		agg.Add(k, mid, nsset.StatusTimeout, 0)
	}
}

func TestClassify(t *testing.T) {
	w := buildWorld(t)
	p := NewPipeline(w.db, WithCensus(w.census), WithTopology(w.topo), WithOpenResolvers(w.open))
	attacks := []rsdos.Attack{
		mkAttack(1, w.vulnNS[0], 100, 105, 53),                         // direct NS
		mkAttack(2, netx.MustParseAddr("192.0.2.99"), 100, 105, 80),    // same /24 as NS
		mkAttack(3, netx.MustParseAddr("8.8.8.8"), 100, 105, 53),       // open resolver
		mkAttack(4, netx.MustParseAddr("120.55.44.33"), 100, 105, 443), // other
	}
	got := p.Classify(attacks)
	want := []Class{ClassDNSDirect, ClassDNSSlash24, ClassOpenResolver, ClassOther}
	for i, ca := range got {
		if ca.Class != want[i] {
			t.Errorf("attack %d class = %v, want %v", i+1, ca.Class, want[i])
		}
	}
	if !got[0].DNSInfra() || got[1].DNSInfra() || !got[2].DNSInfra() || got[3].DNSInfra() {
		t.Error("DNSInfra flags wrong")
	}
	// with the filter off, 8.8.8.8 classifies as a direct NS target
	cfg := DefaultConfig()
	cfg.FilterOpenResolvers = false
	p2 := NewPipeline(w.db, WithConfig(cfg), WithCensus(w.census), WithTopology(w.topo), WithOpenResolvers(w.open))
	if got := p2.Classify(attacks[2:3]); got[0].Class != ClassDNSDirect {
		t.Errorf("unfiltered open resolver class = %v", got[0].Class)
	}
}

// TestClassifyAliasesTheFeed: Classify refers to the caller's attacks
// instead of copying them — one allocation for the whole feed, of at most
// 16 B an attack (a pointer, a one-byte Class, the flag and the
// nameserver ID), where a copy took 96 — and each entry's Attack, like
// each event's, is the attack's address in the caller's slice.
func TestClassifyAliasesTheFeed(t *testing.T) {
	w := buildWorld(t)
	agg := nsset.NewAggregator()
	attackW := clock.Day(40).FirstWindow() + 100
	seedMeasurements(agg, w.vulnKey, attackW.Day(), 10*time.Millisecond, attackW, 100*time.Millisecond, 8, 2)
	p := NewPipeline(w.db, WithDayStore(agg), WithCensus(w.census), WithTopology(w.topo), WithOpenResolvers(w.open))
	victims := []netx.Addr{w.vulnNS[0], w.bigNS[0], netx.MustParseAddr("192.0.2.99"), netx.MustParseAddr("8.8.8.8"), netx.MustParseAddr("120.55.44.33")}
	attacks := make([]rsdos.Attack, 4096)
	for i := range attacks {
		attacks[i] = mkAttack(i+1, victims[i%len(victims)], attackW, attackW+2, 53)
	}

	if n := testing.AllocsPerRun(10, func() { p.Classify(attacks) }); n != 1 {
		t.Errorf("Classify of %d attacks allocates %v times, want 1", len(attacks), n)
	}
	// bytes an attack over ten runs, rounded down as AllocsPerRun rounds
	// objects: what else the process allocates meanwhile (the race
	// runtime does) is shared out, not charged to one attack. At 4,096
	// attacks the result is a large object, whole pages with no
	// size-class rounding or allocation header.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range 10 {
		p.Classify(attacks)
	}
	runtime.ReadMemStats(&after)
	if b := (after.TotalAlloc - before.TotalAlloc) / 10 / uint64(len(attacks)); b > 16 {
		t.Errorf("Classify allocates %d B an attack, want ≤ 16", b)
	}
	classified := p.Classify(attacks)
	for i := range classified {
		if classified[i].Attack != &attacks[i] {
			t.Fatalf("classified[%d].Attack does not point at attacks[%d]", i, i)
		}
	}

	events := p.Events(attacks)
	if len(events) == 0 {
		t.Fatal("no event joined")
	}
	for _, e := range events {
		if e.Attack.Attack != &attacks[e.Attack.ID-1] {
			t.Fatalf("the event of attack %d does not point at attacks[%d]", e.Attack.ID, e.Attack.ID-1)
		}
	}
}

func TestEventsJoinAndImpact(t *testing.T) {
	w := buildWorld(t)
	agg := nsset.NewAggregator()
	attackW := clock.Day(40).FirstWindow() + 100
	// vuln NSSet: baseline 10ms, attack windows at 100ms with 2 timeouts
	seedMeasurements(agg, w.vulnKey, attackW.Day(), 10*time.Millisecond, attackW, 100*time.Millisecond, 8, 2)
	p := NewPipeline(w.db, WithDayStore(agg), WithCensus(w.census), WithTopology(w.topo), WithOpenResolvers(w.open))
	events := p.Events([]rsdos.Attack{mkAttack(1, w.vulnNS[0], attackW, attackW+2, 53)})
	if len(events) != 1 {
		t.Fatalf("events = %d", len(events))
	}
	e := events[0]
	if e.NSSet != w.vulnKey || e.HostedDomains != 10 {
		t.Errorf("event identity: %+v", e)
	}
	if e.MeasuredDomains != 10 || e.OK != 8 || e.Timeouts != 2 {
		t.Errorf("counts: %+v", e)
	}
	if !e.HasImpact || e.Impact < 9.5 || e.Impact > 10.5 {
		t.Errorf("impact = %v, want ≈10", e.Impact)
	}
	if e.FailureRate != 0.2 {
		t.Errorf("failure rate = %v", e.FailureRate)
	}
	if e.Provider != "Vuln" {
		t.Errorf("provider = %q", e.Provider)
	}
	if e.AnycastClass != nsset.Unicast || e.Diversity.NumPrefixes != 1 || e.Diversity.NumASNs != 1 {
		t.Errorf("diversity: %+v class %v", e.Diversity, e.AnycastClass)
	}
}

func TestEventsMinMeasuredFilter(t *testing.T) {
	w := buildWorld(t)
	agg := nsset.NewAggregator()
	attackW := clock.Day(40).FirstWindow()
	seedMeasurements(agg, w.vulnKey, attackW.Day(), 10*time.Millisecond, attackW, 20*time.Millisecond, 3, 0) // only 3 measured
	p := NewPipeline(w.db, WithDayStore(agg), WithCensus(w.census), WithTopology(w.topo), WithOpenResolvers(w.open))
	if events := p.Events([]rsdos.Attack{mkAttack(1, w.vulnNS[0], attackW, attackW+2, 53)}); len(events) != 0 {
		t.Errorf("events below MinMeasuredDomains = %d, want 0", len(events))
	}
	cfg := DefaultConfig()
	cfg.MinMeasuredDomains = 1
	p2 := NewPipeline(w.db, WithConfig(cfg), WithDayStore(agg), WithCensus(w.census), WithTopology(w.topo), WithOpenResolvers(w.open))
	if events := p2.Events([]rsdos.Attack{mkAttack(1, w.vulnNS[0], attackW, attackW+2, 53)}); len(events) != 1 {
		t.Errorf("relaxed filter events = %d, want 1", len(events))
	}
}

func TestEventsRequireSnapshotBaseline(t *testing.T) {
	w := buildWorld(t)
	agg := nsset.NewAggregator()
	attackW := clock.Day(40).FirstWindow()
	// measurements during the attack but NO previous-day baseline
	mid := attackW.Start().Add(time.Minute)
	for i := 0; i < 10; i++ {
		agg.Add(w.vulnKey, mid, nsset.StatusOK, 50*time.Millisecond)
	}
	p := NewPipeline(w.db, WithDayStore(agg), WithCensus(w.census), WithTopology(w.topo), WithOpenResolvers(w.open))
	if events := p.Events([]rsdos.Attack{mkAttack(1, w.vulnNS[0], attackW, attackW+2, 53)}); len(events) != 0 {
		t.Errorf("without prev-day snapshot the NSSet should not join: %d events", len(events))
	}
}

func TestEventsSameDaySnapshotAblation(t *testing.T) {
	w := buildWorld(t)
	agg := nsset.NewAggregator()
	attackW := clock.Day(40).FirstWindow() + 10
	// prev-day baseline exists; on the attack day everything fails
	prev := attackW.Day().Prev().Start()
	for i := 0; i < 10; i++ {
		agg.Add(w.vulnKey, prev.Add(time.Duration(i)*time.Hour), nsset.StatusOK, 10*time.Millisecond)
	}
	mid := attackW.Start().Add(time.Minute)
	for i := 0; i < 10; i++ {
		agg.Add(w.vulnKey, mid, nsset.StatusTimeout, 0)
	}
	atk := mkAttack(1, w.vulnNS[0], attackW, attackW+2, 53)

	prevCfg := DefaultConfig()
	p1 := NewPipeline(w.db, WithConfig(prevCfg), WithDayStore(agg), WithCensus(w.census), WithTopology(w.topo), WithOpenResolvers(w.open))
	if got := len(p1.Events([]rsdos.Attack{atk})); got != 1 {
		t.Errorf("prev-day snapshot events = %d, want 1", got)
	}
	sameCfg := DefaultConfig()
	sameCfg.UsePrevDaySnapshot = false
	p2 := NewPipeline(w.db, WithConfig(sameCfg), WithDayStore(agg), WithCensus(w.census), WithTopology(w.topo), WithOpenResolvers(w.open))
	if got := len(p2.Events([]rsdos.Attack{atk})); got != 0 {
		t.Errorf("same-day snapshot should miss the fully-failed NSSet: %d events", got)
	}
}

func TestDomainsUnderAttack(t *testing.T) {
	w := buildWorld(t)
	p := NewPipeline(w.db, WithCensus(w.census), WithTopology(w.topo), WithOpenResolvers(w.open))
	cas := p.Classify([]rsdos.Attack{mkAttack(1, w.vulnNS[0], 0, 1, 53)})
	if got := p.DomainsUnderAttack(cas[0]); got != 10 {
		t.Errorf("DomainsUnderAttack = %d, want 10", got)
	}
	other := p.Classify([]rsdos.Attack{mkAttack(2, netx.MustParseAddr("120.0.0.1"), 0, 1, 53)})
	if got := p.DomainsUnderAttack(other[0]); got != 0 {
		t.Errorf("non-DNS attack affects %d domains", got)
	}
}

func TestAnycastEnrichment(t *testing.T) {
	w := buildWorld(t)
	agg := nsset.NewAggregator()
	attackW := clock.Day(40).FirstWindow()
	seedMeasurements(agg, w.bigKey, attackW.Day(), 10*time.Millisecond, attackW, 12*time.Millisecond, 20, 0)
	p := NewPipeline(w.db, WithDayStore(agg), WithCensus(w.census), WithTopology(w.topo), WithOpenResolvers(w.open))
	events := p.Events([]rsdos.Attack{mkAttack(1, w.bigNS[0], attackW, attackW+1, 53)})
	if len(events) != 1 {
		t.Fatalf("events = %d", len(events))
	}
	e := events[0]
	if e.AnycastClass != nsset.FullAnycast {
		t.Errorf("anycast class = %v", e.AnycastClass)
	}
	if e.Diversity.NumPrefixes != 2 || e.Diversity.NumASNs != 2 {
		t.Errorf("diversity = %+v", e.Diversity)
	}
}
