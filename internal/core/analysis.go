package core

import (
	"math"
	"sort"
	"strings"
	"time"

	"dnsddos/internal/astopo"
	"dnsddos/internal/clock"
	"dnsddos/internal/netx"
	"dnsddos/internal/nsset"
	"dnsddos/internal/packet"
	"dnsddos/internal/rsdos"
	"dnsddos/internal/stats"
)

// analysis.go computes the quantities behind every table and figure of the
// evaluation (§6). Rendering lives in internal/report.

// DatasetSummary is Table 1: the RSDoS dataset totals.
type DatasetSummary struct {
	Attacks  int
	IPs      int
	Slash24s int
	ASes     int
}

// SummarizeDataset computes Table 1 over the full feed. The AS count uses
// the prefix-to-AS table when available.
func SummarizeDataset(attacks []rsdos.Attack, topo *astopo.Table) DatasetSummary {
	ips := make(map[netx.Addr]struct{})
	p24 := make(map[netx.Prefix]struct{})
	asns := make(map[astopo.ASN]struct{})
	for _, a := range attacks {
		ips[a.Victim] = struct{}{}
		p24[a.Victim.Slash24()] = struct{}{}
		if topo != nil {
			if asn, ok := topo.Lookup(a.Victim); ok {
				asns[asn] = struct{}{}
			}
		}
	}
	return DatasetSummary{Attacks: len(attacks), IPs: len(ips), Slash24s: len(p24), ASes: len(asns)}
}

// MonthRow is one row of Table 3.
type MonthRow struct {
	Month       clock.Month
	DNSAttacks  int
	OtherAttack int
	DNSIPs      int
	OtherIPs    int
}

// TotalAttacks returns the month's attack total.
func (r MonthRow) TotalAttacks() int { return r.DNSAttacks + r.OtherAttack }

// TotalIPs returns the month's unique-victim total.
func (r MonthRow) TotalIPs() int { return r.DNSIPs + r.OtherIPs }

// DNSShare returns the DNS fraction of attacks.
func (r MonthRow) DNSShare() float64 {
	return stats.Ratio(float64(r.DNSAttacks), float64(r.TotalAttacks()))
}

// MonthlySummary computes Table 3: per calendar month, attacks and unique
// victim IPs split into DNS infrastructure vs other.
func MonthlySummary(classified []ClassifiedAttack) []MonthRow {
	type agg struct {
		dns, other int
		dnsIPs     map[netx.Addr]struct{}
		otherIPs   map[netx.Addr]struct{}
	}
	byMonth := make(map[clock.Month]*agg)
	for _, ca := range classified {
		m := clock.MonthOf(ca.Start())
		a := byMonth[m]
		if a == nil {
			a = &agg{dnsIPs: make(map[netx.Addr]struct{}), otherIPs: make(map[netx.Addr]struct{})}
			byMonth[m] = a
		}
		if ca.DNSInfra() {
			a.dns++
			a.dnsIPs[ca.Victim] = struct{}{}
		} else {
			a.other++
			a.otherIPs[ca.Victim] = struct{}{}
		}
	}
	months := make([]clock.Month, 0, len(byMonth))
	for m := range byMonth {
		months = append(months, m)
	}
	sort.Slice(months, func(i, j int) bool { return months[i].Before(months[j]) })
	rows := make([]MonthRow, 0, len(months))
	for _, m := range months {
		a := byMonth[m]
		rows = append(rows, MonthRow{
			Month: m, DNSAttacks: a.dns, OtherAttack: a.other,
			DNSIPs: len(a.dnsIPs), OtherIPs: len(a.otherIPs),
		})
	}
	return rows
}

// RankedASN is one row of Table 4.
type RankedASN struct {
	ASN     astopo.ASN
	Org     string
	Attacks int
}

// TopASNs computes Table 4: ASNs ranked by attacks toward NS-recorded IPs.
func TopASNs(classified []ClassifiedAttack, topo *astopo.Table, n int) []RankedASN {
	counts := make(map[astopo.ASN]int)
	for _, ca := range classified {
		if !ca.DNSInfra() || topo == nil {
			continue
		}
		if asn, ok := topo.Lookup(ca.Victim); ok {
			counts[asn]++
		}
	}
	rows := make([]RankedASN, 0, len(counts))
	for asn, c := range counts {
		org := asn.String()
		if topo != nil {
			org = topo.OrgName(asn)
		}
		rows = append(rows, RankedASN{ASN: asn, Org: org, Attacks: c})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Attacks != rows[j].Attacks {
			return rows[i].Attacks > rows[j].Attacks
		}
		return rows[i].ASN < rows[j].ASN
	})
	if n > 0 && len(rows) > n {
		rows = rows[:n]
	}
	return rows
}

// RankedIP is one row of Table 5.
type RankedIP struct {
	IP      netx.Addr
	Attacks int
	// Type labels the target: provider name, or "open resolver".
	Type string
}

// TopIPs computes Table 5: NS-recorded victim IPs ranked by attack count.
func (p *Pipeline) TopIPs(classified []ClassifiedAttack, n int) []RankedIP {
	counts := make(map[netx.Addr]int)
	kind := make(map[netx.Addr]string)
	for _, ca := range classified {
		if !ca.DNSInfra() {
			continue
		}
		counts[ca.Victim]++
		if _, ok := kind[ca.Victim]; !ok {
			switch {
			case ca.Class == ClassOpenResolver:
				kind[ca.Victim] = "open resolver (" + p.db.ProviderOf(ca.NS).Name + ")"
			default:
				kind[ca.Victim] = p.db.ProviderOf(ca.NS).Name
			}
		}
	}
	rows := make([]RankedIP, 0, len(counts))
	for ip, c := range counts {
		rows = append(rows, RankedIP{IP: ip, Attacks: c, Type: kind[ip]})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Attacks != rows[j].Attacks {
			return rows[i].Attacks > rows[j].Attacks
		}
		return rows[i].IP < rows[j].IP
	})
	if n > 0 && len(rows) > n {
		rows = rows[:n]
	}
	return rows
}

// AffectedOrg is one row of Table 6.
type AffectedOrg struct {
	Org    string
	Impact float64 // worst Eq. 1 impact observed
}

// MostAffected computes Table 6: providers ranked by their worst observed
// RTT impact across events.
func MostAffected(events []Event, n int) []AffectedOrg {
	worst := make(map[string]float64)
	for _, e := range events {
		if !e.HasImpact || e.Provider == "" {
			continue
		}
		if e.Impact > worst[e.Provider] {
			worst[e.Provider] = e.Impact
		}
	}
	rows := make([]AffectedOrg, 0, len(worst))
	for org, imp := range worst {
		rows = append(rows, AffectedOrg{Org: org, Impact: imp})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Impact != rows[j].Impact {
			return rows[i].Impact > rows[j].Impact
		}
		return rows[i].Org < rows[j].Org
	})
	if n > 0 && len(rows) > n {
		rows = rows[:n]
	}
	return rows
}

// MonthlyAffectedDomains computes Figure 5: per month, the number of
// distinct registered domains with at least one nameserver under attack.
func (p *Pipeline) MonthlyAffectedDomains(classified []ClassifiedAttack) map[clock.Month]int {
	byMonth := make(map[clock.Month]map[int32]struct{})
	for _, ca := range classified {
		if ca.Class != ClassDNSDirect {
			continue
		}
		m := clock.MonthOf(ca.Start())
		set := byMonth[m]
		if set == nil {
			set = make(map[int32]struct{})
			byMonth[m] = set
		}
		for _, d := range p.db.DomainsOf(ca.NS) {
			set[int32(d)] = struct{}{}
		}
	}
	out := make(map[clock.Month]int, len(byMonth))
	for m, set := range byMonth {
		out[m] = len(set)
	}
	return out
}

// PortStats is the Figure 6 dataset.
type PortStats struct {
	Total             int
	SinglePort        int
	ProtoCounts       map[packet.Protocol]int
	PortCounts        map[packet.Protocol]map[uint16]int // single-port attacks only
	SinglePortByProto map[packet.Protocol]int
}

// PortDistribution computes Figure 6 over attacks toward DNS authoritative
// infrastructure. When onlyEvents is non-nil, the distribution covers only
// attacks present in that set (the §6.3.1 successful-attack variant).
func PortDistribution(classified []ClassifiedAttack, include func(ClassifiedAttack) bool) PortStats {
	ps := PortStats{
		ProtoCounts:       make(map[packet.Protocol]int),
		PortCounts:        make(map[packet.Protocol]map[uint16]int),
		SinglePortByProto: make(map[packet.Protocol]int),
	}
	for _, ca := range classified {
		if ca.Class != ClassDNSDirect {
			continue
		}
		if include != nil && !include(ca) {
			continue
		}
		ps.Total++
		ps.ProtoCounts[ca.Proto]++
		if ca.UniquePorts <= 1 {
			ps.SinglePort++
			ps.SinglePortByProto[ca.Proto]++
			pm := ps.PortCounts[ca.Proto]
			if pm == nil {
				pm = make(map[uint16]int)
				ps.PortCounts[ca.Proto] = pm
			}
			pm[ca.FirstPort]++
		}
	}
	return ps
}

// SinglePortShare returns the fraction of attacks targeting one port.
func (ps PortStats) SinglePortShare() float64 {
	return stats.Ratio(float64(ps.SinglePort), float64(ps.Total))
}

// PortShare returns the share of single-port attacks on proto targeting port.
func (ps PortStats) PortShare(proto packet.Protocol, port uint16) float64 {
	return stats.Ratio(float64(ps.PortCounts[proto][port]), float64(ps.SinglePortByProto[proto]))
}

// ProtoShare returns the protocol's share of DNS-infrastructure attacks.
func (ps PortStats) ProtoShare(proto packet.Protocol) float64 {
	return stats.Ratio(float64(ps.ProtoCounts[proto]), float64(ps.Total))
}

// FailingAttacks returns PortDistribution's include filter for the §6.3.1
// variant of Figure 6: only attacks that left at least one joined event with
// a failed resolution (port 53 jumps from 30% to 49% among them).
func FailingAttacks(events []Event) func(ClassifiedAttack) bool {
	failing := make(map[int]bool)
	for _, e := range events {
		if e.Timeouts+e.ServFails > 0 {
			failing[e.Attack.ID] = true
		}
	}
	return func(ca ClassifiedAttack) bool { return failing[ca.ID] }
}

// FailureBreakdown summarizes §6.3.1 over events: how many attacks left
// resolution working, and how failures split between timeout and SERVFAIL.
type FailureBreakdown struct {
	Events        int
	WithFailures  int
	CompleteFails int
	Timeouts      int
	ServFails     int
	// UnicastFailShare is the fraction of failing events on unicast-only
	// NSSets (99% in the paper).
	UnicastFailShare float64
	// SingleASNFailShare is the fraction of complete failures on
	// single-ASN NSSets (81%).
	SingleASNFailShare float64
	// SinglePrefixFailShare is the fraction of failing NSSets on a
	// single /24 (60%).
	SinglePrefixFailShare float64
}

// TimeoutShare returns the timeout fraction of failed resolutions (92%).
func (fb FailureBreakdown) TimeoutShare() float64 {
	return stats.Ratio(float64(fb.Timeouts), float64(fb.Timeouts+fb.ServFails))
}

// ServFailShare returns the SERVFAIL fraction of failed resolutions (8%).
func (fb FailureBreakdown) ServFailShare() float64 {
	return stats.Ratio(float64(fb.ServFails), float64(fb.Timeouts+fb.ServFails))
}

// BreakdownFailures computes the §6.3.1 statistics.
func BreakdownFailures(events []Event) FailureBreakdown {
	var fb FailureBreakdown
	fb.Events = len(events)
	var unicastFails, asnSingles, prefixSingles, completes int
	for _, e := range events {
		fails := e.Timeouts + e.ServFails
		if fails == 0 {
			continue
		}
		fb.WithFailures++
		fb.Timeouts += e.Timeouts
		fb.ServFails += e.ServFails
		if e.AnycastClass == nsset.Unicast {
			unicastFails++
		}
		if e.Diversity.NumPrefixes <= 1 {
			prefixSingles++
		}
		if e.FailedCompletely() {
			completes++
			if e.Diversity.NumASNs <= 1 {
				asnSingles++
			}
		}
	}
	fb.CompleteFails = completes
	fb.UnicastFailShare = stats.Ratio(float64(unicastFails), float64(fb.WithFailures))
	fb.SingleASNFailShare = stats.Ratio(float64(asnSingles), float64(completes))
	fb.SinglePrefixFailShare = stats.Ratio(float64(prefixSingles), float64(fb.WithFailures))
	return fb
}

// ScatterPoint is one dot of Figures 7–10.
type ScatterPoint struct {
	X, Y float64
	// SizeBin is the order of magnitude of hosted domains (dot color in
	// the paper's scatters).
	SizeBin int
}

// FailureScatter computes Figure 7: x = hosted domains, y = failure rate,
// over events with at least one failure.
func FailureScatter(events []Event) []ScatterPoint {
	var out []ScatterPoint
	for _, e := range events {
		if e.Timeouts+e.ServFails == 0 {
			continue
		}
		out = append(out, ScatterPoint{
			X:       float64(e.HostedDomains),
			Y:       e.FailureRate * 100,
			SizeBin: stats.LogBin(float64(e.HostedDomains)),
		})
	}
	return out
}

// ImpactScatter computes Figure 8: x = hosted domains, y = Eq. 1 impact.
func ImpactScatter(events []Event) []ScatterPoint {
	var out []ScatterPoint
	for _, e := range events {
		if !e.HasImpact {
			continue
		}
		out = append(out, ScatterPoint{
			X:       float64(e.HostedDomains),
			Y:       e.Impact,
			SizeBin: stats.LogBin(float64(e.HostedDomains)),
		})
	}
	return out
}

// CorrelationResult is the Figure 9/10 dataset: paired series and their
// Pearson coefficient.
type CorrelationResult struct {
	X, Y    []float64
	Pearson float64
	Defined bool
}

// IntensityCorrelation computes Figure 9: telescope-inferred intensity
// (peak PPM) vs Eq. 1 impact.
func IntensityCorrelation(events []Event) CorrelationResult {
	var r CorrelationResult
	for _, e := range events {
		if !e.HasImpact {
			continue
		}
		r.X = append(r.X, e.Attack.PeakPPM)
		r.Y = append(r.Y, e.Impact)
	}
	r.Pearson, r.Defined = stats.Pearson(r.X, r.Y)
	return r
}

// DurationCorrelation computes Figure 10: attack duration (minutes) vs
// Eq. 1 impact.
func DurationCorrelation(events []Event) CorrelationResult {
	var r CorrelationResult
	for _, e := range events {
		if !e.HasImpact {
			continue
		}
		r.X = append(r.X, e.Attack.Duration().Minutes())
		r.Y = append(r.Y, e.Impact)
	}
	r.Pearson, r.Defined = stats.Pearson(r.X, r.Y)
	return r
}

// GroupImpact describes the impact distribution of one resilience group
// (one box of Figures 11–13).
type GroupImpact struct {
	Label    string
	N        int
	Mean     float64
	Median   float64
	P95      float64
	Max      float64
	Share10x float64 // fraction of events with impact ≥ 10
	Share100 float64 // fraction with impact ≥ 100
}

func groupImpact(label string, impacts []float64) GroupImpact {
	g := GroupImpact{Label: label, N: len(impacts)}
	if len(impacts) == 0 {
		return g
	}
	g.Mean = stats.Mean(impacts)
	g.Median = stats.Median(impacts)
	g.P95 = stats.Quantile(impacts, 0.95)
	var over10, over100 int
	for _, v := range impacts {
		if v > g.Max {
			g.Max = v
		}
		if v >= 10 {
			over10++
		}
		if v >= 100 {
			over100++
		}
	}
	g.Share10x = float64(over10) / float64(len(impacts))
	g.Share100 = float64(over100) / float64(len(impacts))
	return g
}

// ImpactOverall summarizes Figure 8 as one group over every event with an
// impact: the ≈5% ≥10× and ≈⅓-of-those ≥100× shares the paper quotes.
func ImpactOverall(events []Event) GroupImpact {
	var impacts []float64
	for _, e := range events {
		if e.HasImpact {
			impacts = append(impacts, e.Impact)
		}
	}
	return groupImpact("all", impacts)
}

// ImpactByAnycast computes Figure 11: impact grouped by anycast class.
func ImpactByAnycast(events []Event) []GroupImpact {
	groups := map[nsset.AnycastClass][]float64{}
	for _, e := range events {
		if e.HasImpact {
			groups[e.AnycastClass] = append(groups[e.AnycastClass], e.Impact)
		}
	}
	out := make([]GroupImpact, 0, 3)
	for _, c := range []nsset.AnycastClass{nsset.Unicast, nsset.PartialAnycast, nsset.FullAnycast} {
		out = append(out, groupImpact(c.String(), groups[c]))
	}
	return out
}

// ImpactByASDiversity computes Figure 12: impact grouped by ASN count
// (1, 2, 3+).
func ImpactByASDiversity(events []Event) []GroupImpact {
	return impactByCount(events, func(e Event) int { return e.Diversity.NumASNs }, "ASN")
}

// ImpactByPrefixDiversity computes Figure 13: impact grouped by /24 count.
func ImpactByPrefixDiversity(events []Event) []GroupImpact {
	return impactByCount(events, func(e Event) int { return e.Diversity.NumPrefixes }, "/24")
}

func impactByCount(events []Event, count func(Event) int, unit string) []GroupImpact {
	groups := map[string][]float64{}
	labels := []string{"1 " + unit, "2 " + unit + "s", "3+ " + unit + "s"}
	for _, e := range events {
		if !e.HasImpact {
			continue
		}
		c := count(e)
		var l string
		switch {
		case c <= 1:
			l = labels[0]
		case c == 2:
			l = labels[1]
		default:
			l = labels[2]
		}
		groups[l] = append(groups[l], e.Impact)
	}
	out := make([]GroupImpact, 0, 3)
	for _, l := range labels {
		out = append(out, groupImpact(l, groups[l]))
	}
	return out
}

// DurationHistogram builds the §6.5 attack-duration histogram (minutes,
// 5-minute bins up to maxMinutes) over DNS-direct attacks.
func DurationHistogram(classified []ClassifiedAttack, maxMinutes float64) *stats.Histogram {
	h := stats.NewHistogram(0, maxMinutes, int(maxMinutes/5))
	for _, ca := range classified {
		if ca.Class == ClassDNSDirect {
			h.Add(ca.Duration().Minutes())
		}
	}
	return h
}

// IntensityHistogram builds the §6.4 telescope-intensity histogram over the
// Figure 9 events: log10 of the peak ppm, 50 bins over five decades. Its
// modes are the paper's bimodal ≈50 / ≈6000 ppm.
func IntensityHistogram(events []Event) *stats.Histogram {
	h := stats.NewHistogram(0, 5, 50)
	for _, e := range events {
		if e.HasImpact && e.Attack.PeakPPM > 0 {
			h.Add(math.Log10(e.Attack.PeakPPM))
		}
	}
	return h
}

// RTTSeries extracts the 5-minute resolution-time series of an NSSet over
// [from, to) — the Figure 2/3 time series.
type RTTSample struct {
	Window   clock.Window
	AvgRTT   time.Duration
	Domains  int
	Timeouts int
	Failures float64
}

// SeriesFor returns the window series of NSSet k over [from, to): one
// ranged read of the day store. It runs on the caller's goroutine, so a
// file-backed store's refusal of a corrupt day (DayStore, daystore.go)
// reaches the caller as that panic.
func (p *Pipeline) SeriesFor(k nsset.Key, from, to time.Time) []RTTSample {
	wins := p.days.AppendWindows(nil, k, clock.WindowOf(from), clock.WindowOf(to)-1)
	if len(wins) == 0 {
		return nil
	}
	out := make([]RTTSample, len(wins))
	for i := range wins {
		m := &wins[i]
		out[i] = RTTSample{
			Window:   m.Window,
			AvgRTT:   m.AvgRTT(),
			Domains:  m.Domains,
			Timeouts: m.Timeouts,
			Failures: m.FailureRate(),
		}
	}
	return out
}

// TLDShare is one row of the affected-domain TLD breakdown. The paper uses
// this view in §5.1: of the ≈776K domains affected by the TransIP attacks,
// two-thirds were .nl.
type TLDShare struct {
	TLD   string
	Count int
	Share float64
}

// AffectedTLDs breaks the domains hosted on an attacked nameserver down by
// top-level domain, largest share first.
func (p *Pipeline) AffectedTLDs(ca ClassifiedAttack) []TLDShare {
	if ca.Class != ClassDNSDirect {
		return nil
	}
	counts := map[string]int{}
	total := 0
	for _, d := range p.db.DomainsOf(ca.NS) {
		name := p.db.Domains[d].Name
		tld := name
		if i := strings.LastIndexByte(name, '.'); i >= 0 {
			tld = name[i+1:]
		}
		counts[tld]++
		total++
	}
	out := make([]TLDShare, 0, len(counts))
	for tld, c := range counts {
		out = append(out, TLDShare{TLD: tld, Count: c, Share: stats.Ratio(float64(c), float64(total))})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].TLD < out[j].TLD
	})
	return out
}

// ThirdPartyWebShare returns how many of an attacked nameserver's domains
// host their web content elsewhere — the §5.1.1 observation that ≈27% of
// TransIP-hosted domains used third-party web hosting and so felt the
// attacks only through DNS resolution.
func (p *Pipeline) ThirdPartyWebShare(ca ClassifiedAttack) (count int, share float64) {
	if ca.Class != ClassDNSDirect {
		return 0, 0
	}
	total := 0
	for _, d := range p.db.DomainsOf(ca.NS) {
		total++
		if p.db.Domains[d].ThirdPartyWeb {
			count++
		}
	}
	return count, stats.Ratio(float64(count), float64(total))
}
