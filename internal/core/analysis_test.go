package core

import (
	"testing"
	"time"

	"dnsddos/internal/astopo"
	"dnsddos/internal/clock"
	"dnsddos/internal/dnsdb"
	"dnsddos/internal/netx"
	"dnsddos/internal/nsset"
	"dnsddos/internal/packet"
	"dnsddos/internal/rsdos"
)

func classified(victimIsDNS bool, month time.Month, year int, proto packet.Protocol, port uint16, uniquePorts int, dur time.Duration) ClassifiedAttack {
	start := time.Date(year, month, 10, 12, 0, 0, 0, time.UTC)
	ca := ClassifiedAttack{
		Attack: &rsdos.Attack{
			Victim:      netx.MustParseAddr("192.0.2.1"),
			StartWindow: clock.WindowOf(start),
			EndWindow:   clock.WindowOf(start.Add(dur)) - 1,
			Proto:       proto,
			FirstPort:   port,
			UniquePorts: int32(uniquePorts),
		},
	}
	if victimIsDNS {
		ca.Class = ClassDNSDirect
		ca.NSRecorded = true
	}
	return ca
}

func TestSummarizeDataset(t *testing.T) {
	tb := astopo.NewBuilder()
	tb.Announce(netx.MustParsePrefix("192.0.0.0/8"), 64500)
	tb.Announce(netx.MustParsePrefix("198.51.0.0/16"), 64501)
	topo := tb.Build()
	attacks := []rsdos.Attack{
		{Victim: netx.MustParseAddr("192.0.2.1")},
		{Victim: netx.MustParseAddr("192.0.2.1")}, // repeat IP
		{Victim: netx.MustParseAddr("192.0.2.9")}, // same /24
		{Victim: netx.MustParseAddr("198.51.100.1")},
	}
	ds := SummarizeDataset(attacks, topo)
	if ds.Attacks != 4 || ds.IPs != 3 || ds.Slash24s != 2 || ds.ASes != 2 {
		t.Errorf("summary = %+v", ds)
	}
}

func TestMonthlySummary(t *testing.T) {
	cas := []ClassifiedAttack{
		classified(true, time.November, 2020, packet.ProtoTCP, 53, 1, time.Hour),
		classified(false, time.November, 2020, packet.ProtoTCP, 80, 1, time.Hour),
		classified(false, time.November, 2020, packet.ProtoTCP, 80, 1, time.Hour),
		classified(true, time.December, 2020, packet.ProtoTCP, 53, 1, time.Hour),
	}
	rows := MonthlySummary(cas)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	nov := rows[0]
	if nov.Month != (clock.Month{Year: 2020, Month: time.November}) {
		t.Errorf("first row month = %v", nov.Month)
	}
	if nov.DNSAttacks != 1 || nov.OtherAttack != 2 || nov.TotalAttacks() != 3 {
		t.Errorf("nov = %+v", nov)
	}
	if s := nov.DNSShare(); s < 0.33 || s > 0.34 {
		t.Errorf("share = %v", s)
	}
}

func TestPortDistribution(t *testing.T) {
	cas := []ClassifiedAttack{
		classified(true, time.January, 2021, packet.ProtoTCP, 80, 1, time.Hour),
		classified(true, time.January, 2021, packet.ProtoTCP, 53, 1, time.Hour),
		classified(true, time.January, 2021, packet.ProtoTCP, 80, 1, time.Hour),
		classified(true, time.January, 2021, packet.ProtoUDP, 53, 1, time.Hour),
		classified(true, time.January, 2021, packet.ProtoTCP, 0, 4, time.Hour),   // multi-port
		classified(false, time.January, 2021, packet.ProtoTCP, 80, 1, time.Hour), // not DNS: excluded
	}
	ps := PortDistribution(cas, nil)
	if ps.Total != 5 {
		t.Errorf("total = %d", ps.Total)
	}
	if ps.SinglePort != 4 || ps.SinglePortShare() != 0.8 {
		t.Errorf("single port = %d (%.2f)", ps.SinglePort, ps.SinglePortShare())
	}
	if got := ps.PortShare(packet.ProtoTCP, 80); got != 2.0/3 {
		t.Errorf("TCP/80 share = %v", got)
	}
	if got := ps.ProtoShare(packet.ProtoUDP); got != 0.2 {
		t.Errorf("UDP share = %v", got)
	}
	// include filter
	only53 := PortDistribution(cas, func(ca ClassifiedAttack) bool { return ca.FirstPort == 53 })
	if only53.Total != 2 {
		t.Errorf("filtered total = %d", only53.Total)
	}
}

func mkEvent(hosted, measured, okN, to, sf int, impact float64, class nsset.AnycastClass, asns, prefixes int, provider string) Event {
	return Event{
		Attack:          ClassifiedAttack{Attack: &rsdos.Attack{}},
		HostedDomains:   hosted,
		MeasuredDomains: measured,
		OK:              okN, Timeouts: to, ServFails: sf,
		Impact: impact, HasImpact: impact > 0,
		FailureRate:  float64(to+sf) / float64(measured),
		AnycastClass: class,
		Diversity:    nsset.Diversity{NumNS: 2, NumASNs: asns, NumPrefixes: prefixes, NumAnycast: map[bool]int{true: 2, false: 0}[class == nsset.FullAnycast]},
		Provider:     provider,
	}
}

func TestBreakdownFailures(t *testing.T) {
	events := []Event{
		mkEvent(100, 10, 10, 0, 0, 1.1, nsset.FullAnycast, 2, 2, "Big"),
		mkEvent(50, 10, 0, 9, 1, 0, nsset.Unicast, 1, 1, "Vuln"),  // complete failure
		mkEvent(60, 10, 5, 5, 0, 3, nsset.Unicast, 1, 2, "SemiV"), // partial failure
	}
	fb := BreakdownFailures(events)
	if fb.Events != 3 || fb.WithFailures != 2 || fb.CompleteFails != 1 {
		t.Errorf("breakdown = %+v", fb)
	}
	if fb.Timeouts != 14 || fb.ServFails != 1 {
		t.Errorf("failure counts = %d/%d", fb.Timeouts, fb.ServFails)
	}
	if fb.UnicastFailShare != 1 {
		t.Errorf("unicast share = %v", fb.UnicastFailShare)
	}
	if fb.SingleASNFailShare != 1 {
		t.Errorf("single-ASN share of complete fails = %v", fb.SingleASNFailShare)
	}
	if fb.SinglePrefixFailShare != 0.5 {
		t.Errorf("single-prefix share = %v", fb.SinglePrefixFailShare)
	}
}

func TestMostAffected(t *testing.T) {
	events := []Event{
		mkEvent(10, 10, 10, 0, 0, 5, nsset.Unicast, 1, 1, "A"),
		mkEvent(10, 10, 10, 0, 0, 300, nsset.Unicast, 1, 1, "B"),
		mkEvent(10, 10, 10, 0, 0, 100, nsset.Unicast, 1, 1, "B"), // B's lower event
		mkEvent(10, 10, 10, 0, 0, 20, nsset.Unicast, 1, 1, "C"),
	}
	rows := MostAffected(events, 2)
	if len(rows) != 2 || rows[0].Org != "B" || rows[0].Impact != 300 || rows[1].Org != "C" {
		t.Errorf("rows = %+v", rows)
	}
}

func TestScatters(t *testing.T) {
	events := []Event{
		mkEvent(1000, 10, 10, 0, 0, 1.1, nsset.FullAnycast, 2, 2, "Big"),
		mkEvent(500, 10, 2, 8, 0, 50, nsset.Unicast, 1, 1, "Vuln"),
	}
	fs := FailureScatter(events)
	if len(fs) != 1 || fs[0].X != 500 || fs[0].Y != 80 || fs[0].SizeBin != 2 {
		t.Errorf("failure scatter = %+v", fs)
	}
	is := ImpactScatter(events)
	if len(is) != 2 || is[0].Y != 1.1 || is[1].Y != 50 {
		t.Errorf("impact scatter = %+v", is)
	}
}

func TestCorrelations(t *testing.T) {
	var events []Event
	for i := 1; i <= 10; i++ {
		e := mkEvent(100, 10, 10, 0, 0, float64(i), nsset.Unicast, 1, 1, "P")
		e.Attack.PeakPPM = float64(i * 100) // perfectly correlated
		e.Attack.StartWindow = 0
		e.Attack.EndWindow = clock.Window(i) - 1 // duration i windows
		events = append(events, e)
	}
	r := IntensityCorrelation(events)
	if !r.Defined || r.Pearson < 0.999 {
		t.Errorf("intensity pearson = %v", r.Pearson)
	}
	d := DurationCorrelation(events)
	if !d.Defined || d.Pearson < 0.999 {
		t.Errorf("duration pearson = %v", d.Pearson)
	}
}

func TestImpactGroups(t *testing.T) {
	events := []Event{
		mkEvent(10, 10, 10, 0, 0, 150, nsset.Unicast, 1, 1, "A"),
		mkEvent(10, 10, 10, 0, 0, 15, nsset.Unicast, 1, 1, "A"),
		mkEvent(10, 10, 10, 0, 0, 1.2, nsset.FullAnycast, 2, 3, "B"),
		mkEvent(10, 10, 10, 0, 0, 1.4, nsset.PartialAnycast, 2, 2, "C"),
	}
	groups := ImpactByAnycast(events)
	if len(groups) != 3 {
		t.Fatalf("groups = %d", len(groups))
	}
	uni := groups[0]
	if uni.Label != "unicast" || uni.N != 2 || uni.Max != 150 || uni.Share10x != 1 || uni.Share100 != 0.5 {
		t.Errorf("unicast group = %+v", uni)
	}
	if groups[2].Label != "anycast" || groups[2].Max != 1.2 {
		t.Errorf("anycast group = %+v", groups[2])
	}

	asGroups := ImpactByASDiversity(events)
	if asGroups[0].N != 2 || asGroups[1].N != 2 || asGroups[2].N != 0 {
		t.Errorf("AS groups = %+v", asGroups)
	}
	pfx := ImpactByPrefixDiversity(events)
	if pfx[0].N != 2 || pfx[1].N != 1 || pfx[2].N != 1 {
		t.Errorf("prefix groups = %+v", pfx)
	}
}

func TestDurationHistogram(t *testing.T) {
	cas := []ClassifiedAttack{
		classified(true, time.January, 2021, packet.ProtoTCP, 53, 1, 15*time.Minute),
		classified(true, time.January, 2021, packet.ProtoTCP, 53, 1, 15*time.Minute),
		classified(true, time.January, 2021, packet.ProtoTCP, 53, 1, time.Hour),
		classified(false, time.January, 2021, packet.ProtoTCP, 80, 1, time.Hour), // excluded
	}
	h := DurationHistogram(cas, 180)
	if h.N != 3 {
		t.Errorf("histogram N = %d, want 3 (DNS-direct only)", h.N)
	}
}

func TestAffectedTLDsAndThirdPartyWeb(t *testing.T) {
	db := dnsdbNewForTLD(t)
	p := NewPipeline(db)
	ca := p.Classify([]rsdos.Attack{{Victim: netx.MustParseAddr("192.0.2.1")}})[0]
	tlds := p.AffectedTLDs(ca)
	if len(tlds) != 2 || tlds[0].TLD != "nl" || tlds[0].Count != 4 || tlds[1].TLD != "com" {
		t.Fatalf("tlds = %+v", tlds)
	}
	if tlds[0].Share != 4.0/6 {
		t.Errorf("nl share = %v, want 2/3", tlds[0].Share)
	}
	n, share := p.ThirdPartyWebShare(ca)
	if n != 2 || share != 2.0/6 {
		t.Errorf("third-party web = %d (%.2f)", n, share)
	}
	// non-DNS attacks have no TLD breakdown
	other := p.Classify([]rsdos.Attack{{Victim: netx.MustParseAddr("120.0.0.9")}})[0]
	if p.AffectedTLDs(other) != nil {
		t.Error("non-DNS attack should have no breakdown")
	}
}

// dnsdbNewForTLD builds one nameserver hosting 4 .nl and 2 .com domains,
// two of them with third-party web hosting.
func dnsdbNewForTLD(t *testing.T) *dnsdb.DB {
	t.Helper()
	db := dnsdb.New()
	pid := db.AddProvider(dnsdb.Provider{Name: "P"})
	id, err := db.AddNameserver(dnsdb.Nameserver{Addr: netx.MustParseAddr("192.0.2.1"), Provider: pid})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		db.AddDomain(dnsdb.Domain{Name: "a.nl", NS: []dnsdb.NameserverID{id}, ThirdPartyWeb: i < 2})
	}
	for i := 0; i < 2; i++ {
		db.AddDomain(dnsdb.Domain{Name: "b.com", NS: []dnsdb.NameserverID{id}})
	}
	db.Freeze()
	return db
}
