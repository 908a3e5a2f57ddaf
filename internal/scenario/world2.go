package scenario

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"dnsddos/internal/anycast"
	"dnsddos/internal/astopo"
	"dnsddos/internal/dnsdb"
	"dnsddos/internal/netx"
	"dnsddos/internal/stats"
)

// world2.go holds the later world-generation phases: named providers,
// generic long-tail providers, domain assignment, the non-DNS victim
// space, and the anycast census.

func (b *worldBuilder) buildNamed() {
	for _, t := range namedProviders() {
		b.addProviderNS(t)
	}
	// open resolvers registered as "nameservers" of their operator so
	// that misconfigured domains can delegate to them
	for _, e := range openResolverEntries() {
		pid, ok := b.w.Named[e.provider]
		if !ok {
			panic("scenario: open resolver provider missing: " + e.provider)
		}
		addr := netx.MustParseAddr(e.addr)
		asn := b.db.Providers[pid].ASNs[0]
		b.announce(addr.Slash24(), asn)
		b.anycast24s = append(b.anycast24s, addr.Slash24())
		id, err := b.db.AddNameserver(dnsdb.Nameserver{
			Host:        "resolver-" + e.addr + ".invalid",
			Addr:        addr,
			Provider:    pid,
			Anycast:     true,
			Sites:       200,
			CapacityPPS: 5e8,
			BaseRTT:     b.baseRTT(6),
		})
		if err != nil {
			panic(err)
		}
		b.openResGroups = append(b.openResGroups, len(b.w.Groups))
		b.w.Groups = append(b.w.Groups, Group{Provider: pid, NS: []dnsdb.NameserverID{id}})
		b.w.AttackWeights[addr] = e.weight
	}
}

// genericCountries weights the long-tail provider geography.
var genericCountries = []string{"US", "DE", "NL", "FR", "GB", "RU", "PL", "ES", "IT", "SE", "CA", "JP", "BR", "AU", "TR"}

// genericBaseRTT maps country to a mean base RTT from the NL vantage.
func genericBaseRTT(country string) float64 {
	switch country {
	case "NL":
		return 5
	case "DE", "FR", "GB", "BE":
		return 13
	case "PL", "ES", "IT", "SE", "AT":
		return 25
	case "RU", "TR":
		return 55
	case "US", "CA":
		return 95
	default:
		return 130
	}
}

func (b *worldBuilder) buildGenerics() {
	for i := 0; i < b.cfg.GenericProviders; i++ {
		country := genericCountries[b.rng.IntN(len(genericCountries))]
		asn := astopo.ASN(60000 + i)
		// size class by rank: a handful of big generics, then a tail
		var capacity float64
		var anycastP float64
		switch {
		case i < 5:
			capacity = 4e6
			anycastP = 0.6
		case i < 25:
			capacity = 3e5
			anycastP = 0.3
		default:
			capacity = 1.5e4 + b.rng.Float64()*9e4
			anycastP = 0.12
		}
		weight := 0.25
		if capacity < 1.5e5 {
			// small hosters attract proportionally more of the DNS
			// attacks that actually do damage (§6.3)
			weight = 1.0
		}
		t := providerTemplate{
			name:         fmt.Sprintf("Provider-%03d %s", i, country),
			country:      country,
			asn:          asn,
			groups:       1,
			nsPerGroup:   2 + b.rng.IntN(3),
			capacityPPS:  capacity,
			baseRTTms:    genericBaseRTT(country),
			attackWeight: weight,
		}
		if b.rng.Float64() < anycastP {
			t.anycast = true
			t.sites = 4 + b.rng.IntN(28)
		} else if b.rng.Float64() < 0.15 {
			t.partialAnycast = true
			t.sites = 4 + b.rng.IntN(12)
		}
		// prefix diversity: many small unicast providers sit in one /24
		switch r := b.rng.Float64(); {
		case r < 0.45:
			t.prefixes24 = 1
		case r < 0.8:
			t.prefixes24 = 2
		default:
			t.prefixes24 = t.nsPerGroup
		}
		// multi-AS deployments are more common for larger providers
		// (§6.6.2: big NSSets are more likely multi-AS)
		multiASP := 0.12
		if i < 25 {
			multiASP = 0.5
		}
		if t.prefixes24 >= 2 && b.rng.Float64() < multiASP {
			t.secondASN = astopo.ASN(61000 + i)
		}
		b.addProviderNS(t)
	}
}

// buildDomains assigns registered domains to NS groups: named providers by
// share, generics by Zipf over the remainder, misconfigured domains to
// open resolvers.
func (b *worldBuilder) buildDomains() {
	n := b.cfg.Domains
	type slot struct {
		group  int
		weight float64
	}
	var slots []slot
	named := namedProviders()
	shareOf := make(map[dnsdb.ProviderID]float64)
	for _, t := range named {
		shareOf[b.w.Named[t.name]] = t.share
	}
	// count groups per provider to split shares
	groupsPer := make(map[dnsdb.ProviderID]int)
	for _, g := range b.w.Groups {
		groupsPer[g.Provider]++
	}
	var namedTotal float64
	openResGroups := b.openResGroups
	isOpenRes := make(map[int]bool, len(openResGroups))
	for _, gi := range openResGroups {
		isOpenRes[gi] = true
	}
	genericGroups := make([]int, 0, len(b.w.Groups))
	for gi, g := range b.w.Groups {
		if isOpenRes[gi] {
			continue
		}
		if share, ok := shareOf[g.Provider]; ok {
			w := share / float64(groupsPer[g.Provider])
			slots = append(slots, slot{group: gi, weight: w})
			namedTotal += w
			continue
		}
		genericGroups = append(genericGroups, gi)
	}
	// generic tail shares the remaining mass by Zipf rank
	remainder := 1 - namedTotal - b.cfg.MisconfiguredShare
	if remainder < 0.1 {
		remainder = 0.1
	}
	z := stats.NewZipf(len(genericGroups), 0.9)
	for rank, gi := range genericGroups {
		slots = append(slots, slot{group: gi, weight: remainder * z.Weight(rank)})
	}
	// cumulative selection
	var total float64
	for _, s := range slots {
		total += s.weight
	}
	// misconfigured mass routes to the open-resolver groups
	misconf := b.cfg.MisconfiguredShare
	cum := make([]float64, len(slots))
	acc := 0.0
	for i, s := range slots {
		acc += s.weight / (total + misconf)
		cum[i] = acc
	}

	// special-case domains for the §5.2 case studies
	b.addCaseStudyDomains()

	// Generated names are cut from one arena: a Builder grown once to the
	// longest form ('d', the index zero-padded to six digits, '.', a tld
	// of at most three letters) hands out substrings of its one buffer.
	var names strings.Builder
	todo := max(n-len(b.db.Domains), 0)
	names.Grow(todo * (1 + max(6, len(strconv.Itoa(n))) + 1 + 3))
	b.db.Domains = slices.Grow(b.db.Domains, todo)
	for i := len(b.db.Domains); i < n; i++ {
		u := b.rng.Float64()
		var gi int
		if u >= cum[len(cum)-1] && len(openResGroups) > 0 {
			gi = openResGroups[b.rng.IntN(len(openResGroups))]
		} else {
			gi = slots[searchCum(cum, u)].group
		}
		g := b.w.Groups[gi]
		p := b.db.Providers[g.Provider]
		tp := false
		for _, t := range named {
			if b.w.Named[t.name] == g.Provider && t.thirdPartyWeb > 0 {
				tp = b.rng.Float64() < t.thirdPartyWeb
			}
		}
		// AddDomain keeps a sorted, duplicate-free list as it is, so the
		// domains of a group share the group's array
		dom := dnsdb.Domain{
			Name:          appendDomainName(&names, i, tldFor(p.Country)),
			NS:            g.NS,
			ThirdPartyWeb: tp,
		}
		// parent-child inconsistency: the registry still lists a stale
		// nameserver of a previous provider instead of one child server
		if b.rng.Float64() < b.cfg.InconsistentShare && len(dom.NS) > 1 && len(genericGroups) > 0 {
			other := b.w.Groups[genericGroups[b.rng.IntN(len(genericGroups))]]
			if other.Provider != g.Provider && len(other.NS) > 0 {
				parent := append([]dnsdb.NameserverID(nil), dom.NS...)
				parent[b.rng.IntN(len(parent))] = other.NS[b.rng.IntN(len(other.NS))]
				dom.ParentNS = parent
			}
		}
		b.db.AddDomain(dom)
	}
}

// appendDomainName writes fmt.Sprintf("d%06d.%s", i, tld) at the arena's
// end and returns it as a substring of the arena.
func appendDomainName(arena *strings.Builder, i int, tld string) string {
	start := arena.Len()
	arena.WriteByte('d')
	var digits [20]byte
	num := strconv.AppendInt(digits[:0], int64(i), 10)
	for pad := 6 - len(num); pad > 0; pad-- {
		arena.WriteByte('0')
	}
	arena.Write(num)
	arena.WriteByte('.')
	arena.WriteString(tld)
	return arena.String()[start:]
}

func searchCum(cum []float64, u float64) int {
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func tldFor(country string) string {
	switch country {
	case "NL":
		return "nl"
	case "RU":
		return "ru"
	case "DE":
		return "de"
	default:
		return "com"
	}
}

// addCaseStudyDomains registers the hand-scripted domains of §5.2.
func (b *worldBuilder) addCaseStudyDomains() {
	mil := b.w.Groups[b.groupOf("MilRu Hosting")]
	for _, name := range []string{"mil.ru", "xn--90anlfbebar6i.xn--p1ai", "recrut.mil.ru", "stat.mil.ru", "mult.mil.ru", "function.mil.ru"} {
		b.db.AddDomain(dnsdb.Domain{Name: name, NS: mil.NS})
	}
	rzd := b.w.Groups[b.groupOf("RZD Rail")]
	for _, name := range []string{"rzd.ru", "ticket.rzd.ru", "cargo.rzd.ru", "pass.rzd.ru", "eng.rzd.ru", "company.rzd.ru"} {
		b.db.AddDomain(dnsdb.Domain{Name: name, NS: rzd.NS})
	}
}

// groupOf returns the index of a named provider's first group.
func (b *worldBuilder) groupOf(name string) int {
	pid, ok := b.w.Named[name]
	if !ok {
		panic("scenario: unknown named provider " + name)
	}
	for gi, g := range b.w.Groups {
		if g.Provider == pid {
			return gi
		}
	}
	panic("scenario: provider has no groups: " + name)
}

// buildOtherSpace announces filler ASNs over the non-DNS victim space so
// Table 1's AS counting has realistic diversity.
func (b *worldBuilder) buildOtherSpace() {
	// 120.0.0.0/6 = 4096 /18s; announce each /18 from its own filler AS
	base := b.w.OtherSpace
	count := int(base.Size() >> 14) // number of /18s
	for i := 0; i < count; i++ {
		p := netx.Prefix{Addr: base.Addr + netx.Addr(i)<<14, Bits: 18}
		asn := astopo.ASN(100000 + i)
		b.announce(p, asn)
		if i%64 == 0 {
			b.setOrg(asn, fmt.Sprintf("Transit-%04d", i), "US")
		}
	}
}

// buildCensus takes quarterly census snapshots with the configured recall.
func (b *worldBuilder) buildCensus() {
	quarters := []time.Time{
		time.Date(2021, 1, 15, 0, 0, 0, 0, time.UTC),
		time.Date(2021, 4, 15, 0, 0, 0, 0, time.UTC),
		time.Date(2021, 7, 15, 0, 0, 0, 0, time.UTC),
		time.Date(2021, 10, 15, 0, 0, 0, 0, time.UTC),
		time.Date(2022, 1, 15, 0, 0, 0, 0, time.UTC),
	}
	snaps := make([]*anycast.Snapshot, 0, len(quarters))
	for _, q := range quarters {
		var detected []netx.Prefix
		for _, p := range b.anycast24s {
			if b.rng.Float64() < b.cfg.AnycastRecall {
				detected = append(detected, p)
			}
		}
		snaps = append(snaps, anycast.NewSnapshot(q, detected))
	}
	b.w.Census = anycast.NewCensus(snaps...)
}

func (b *worldBuilder) finish() {
	b.db.Freeze()
	b.w.Topo = b.topo.Build()
	b.w.Entries = b.entries
}
