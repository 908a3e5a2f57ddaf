// Package scenario generates the synthetic study inputs: the DNS world
// (providers, nameservers, registered domains, routing and anycast
// metadata) and the 17-month attack schedule, including the scripted case
// studies of §5 (TransIP, mil.ru, RDZ railways).
//
// Everything is driven by explicit seeds; the same configuration always
// produces the same world and schedule.
package scenario

import (
	"math/rand/v2"
	"strconv"
	"strings"
	"time"

	"dnsddos/internal/anycast"
	"dnsddos/internal/astopo"
	"dnsddos/internal/dnsdb"
	"dnsddos/internal/netx"
	"dnsddos/internal/openres"
	"dnsddos/internal/stats"
)

// WorldConfig sizes the synthetic DNS ecosystem.
type WorldConfig struct {
	Seed uint64
	// Domains is the registered-domain count (the real namespace is
	// ~2×10⁸; shapes are preserved at 10⁴–10⁵).
	Domains int
	// GenericProviders is the number of long-tail providers beyond the
	// named case-study ones.
	GenericProviders int
	// MisconfiguredShare is the fraction of domains whose NS records
	// point at public open resolvers (the Table 5 artefact).
	MisconfiguredShare float64
	// AnycastRecall is the census detection probability per anycast /24
	// (the census is a lower bound, §3.3).
	AnycastRecall float64
	// InconsistentShare is the fraction of domains whose parent-side
	// delegation disagrees with the zone's own NS set (§3.2's reason
	// for explicit NS queries; Sommese et al. PAM 2020). A stale parent
	// record typically points at a previous provider's server, which is
	// lame for the zone.
	InconsistentShare float64
}

// DefaultWorldConfig returns the standard longitudinal world.
func DefaultWorldConfig() WorldConfig {
	return WorldConfig{
		Seed:               1,
		Domains:            30000,
		GenericProviders:   150,
		MisconfiguredShare: 0.003,
		AnycastRecall:      0.9,
		InconsistentShare:  0.04,
	}
}

// Group is one NSSet-forming nameserver group of a provider.
type Group struct {
	Provider dnsdb.ProviderID
	NS       []dnsdb.NameserverID
}

// World is the generated ecosystem plus all ancillary metadata.
type World struct {
	Config  WorldConfig
	DB      *dnsdb.DB
	Topo    *astopo.Table
	Census  *anycast.Census
	OpenRes *openres.List
	// Groups are the NS groups; each generates one NSSet.
	Groups []Group
	// Named maps case-study provider names to IDs.
	Named map[string]dnsdb.ProviderID
	// AttackWeights biases DNS-attack victim selection per NS address
	// (open resolvers and shared-hosting IPs attract many attacks).
	AttackWeights map[netx.Addr]float64
	// OtherSpace is where non-DNS attack victims live.
	OtherSpace netx.Prefix
}

// providerTemplate scripts one named provider.
type providerTemplate struct {
	name    string
	country string
	asn     astopo.ASN
	// share is the fraction of domains hosted.
	share float64
	// groups × nsPerGroup nameservers; prefixes24 is how many distinct
	// /24s the NSs of one group spread over.
	groups, nsPerGroup, prefixes24 int
	anycast                        bool
	partialAnycast                 bool
	sites                          int
	capacityPPS                    float64
	baseRTTms                      float64
	scrubbingSince                 time.Time
	attackWeight                   float64 // per NS address
	thirdPartyWeb                  float64
	// secondASN, when nonzero, announces the second half of each
	// group's /24 pool from a different AS — a multi-AS deployment
	// (§6.6.2). Requires prefixes24 >= 2 to have any effect.
	secondASN astopo.ASN
}

// namedProviders mirrors the organizations the paper names, with shapes
// (deployment style, relative size, capacity class) chosen to reproduce
// the evaluation's rankings. Shares are fractions of the domain count.
func namedProviders() []providerTemplate {
	feb2021 := time.Date(2021, 2, 1, 0, 0, 0, 0, time.UTC)
	return []providerTemplate{
		// mega anycast DNS/cloud providers (Table 4 top, Fig. 5 peaks)
		{name: "Cloudflare", country: "US", asn: 13335, share: 0.13, groups: 4, nsPerGroup: 4, prefixes24: 4, anycast: true, sites: 80, capacityPPS: 5e7, baseRTTms: 5, attackWeight: 14},
		{name: "GoDaddy", country: "US", asn: 26496, share: 0.10, groups: 4, nsPerGroup: 4, prefixes24: 3, anycast: true, sites: 30, capacityPPS: 8e6, baseRTTms: 18, attackWeight: 5},
		{name: "Google", country: "US", asn: 15169, share: 0.05, groups: 2, nsPerGroup: 4, prefixes24: 4, anycast: true, sites: 100, capacityPPS: 8e7, baseRTTms: 6, attackWeight: 10},
		{name: "Amazon", country: "US", asn: 16509, share: 0.05, groups: 3, nsPerGroup: 4, prefixes24: 4, anycast: true, sites: 50, capacityPPS: 4e7, baseRTTms: 12, attackWeight: 8},
		{name: "Microsoft", country: "US", asn: 8068, share: 0.02, groups: 2, nsPerGroup: 4, prefixes24: 4, anycast: true, sites: 40, capacityPPS: 3e7, baseRTTms: 14, attackWeight: 6.5},
		{name: "Fastly", country: "US", asn: 54113, share: 0.012, groups: 1, nsPerGroup: 4, prefixes24: 2, anycast: true, sites: 40, capacityPPS: 2e7, baseRTTms: 8, attackWeight: 5.5},
		// large shared hosting, unicast (Unified Layer hosts the
		// much-attacked shared web IP)
		{name: "Unified Layer", country: "US", asn: 46606, share: 0.04, groups: 2, nsPerGroup: 2, prefixes24: 2, capacityPPS: 2e6, baseRTTms: 95, attackWeight: 13},
		{name: "OVH", country: "FR", asn: 16276, share: 0.04, groups: 2, nsPerGroup: 3, prefixes24: 3, capacityPPS: 3e6, baseRTTms: 12, attackWeight: 11, secondASN: 35540},
		{name: "Hetzner", country: "DE", asn: 24940, share: 0.03, groups: 2, nsPerGroup: 3, prefixes24: 3, capacityPPS: 6e4, baseRTTms: 11, attackWeight: 11},
		{name: "Birbir", country: "TR", asn: 199608, share: 0.004, groups: 1, nsPerGroup: 2, prefixes24: 1, capacityPPS: 2e5, baseRTTms: 45, attackWeight: 4.5},
		{name: "Pendc", country: "TR", asn: 48678, share: 0.004, groups: 1, nsPerGroup: 2, prefixes24: 1, capacityPPS: 2e5, baseRTTms: 45, attackWeight: 2.8},
		// the §5.1 case study: three unicast NSs, three /24s, one ASN,
		// scrubbing deployed between the December and March attacks
		{name: "TransIP", country: "NL", asn: 20857, share: 0.07, groups: 1, nsPerGroup: 3, prefixes24: 3, capacityPPS: 1.25e5, baseRTTms: 5, scrubbingSince: feb2021, attackWeight: 0.5, thirdPartyWeb: 0.27},
		// Russian infrastructure (§5.2, §6.1, Table 6)
		{name: "nic.ru", country: "RU", asn: 48287, share: 0.02, groups: 2, nsPerGroup: 3, prefixes24: 2, capacityPPS: 9e4, baseRTTms: 55, attackWeight: 1.5},
		{name: "Beeline RU", country: "RU", asn: 3216, share: 0.010, groups: 1, nsPerGroup: 2, prefixes24: 1, capacityPPS: 8e4, baseRTTms: 55, attackWeight: 2.4},
		{name: "MilRu Hosting", country: "RU", asn: 64512, share: 0, groups: 1, nsPerGroup: 3, prefixes24: 1, capacityPPS: 5e4, baseRTTms: 60, attackWeight: 0},
		{name: "RZD Rail", country: "RU", asn: 64513, share: 0, groups: 1, nsPerGroup: 3, prefixes24: 2, capacityPPS: 6e4, baseRTTms: 58, attackWeight: 0},
		{name: "Apple Russia", country: "RU", asn: 64514, share: 0.009, groups: 1, nsPerGroup: 2, prefixes24: 1, capacityPPS: 5e4, baseRTTms: 62, attackWeight: 1.8},
		// small/medium European hosters: the Table 6 RTT-impact ranking
		{name: "NForce B.V.", country: "NL", asn: 43350, share: 0.012, groups: 1, nsPerGroup: 2, prefixes24: 1, capacityPPS: 2.0e4, baseRTTms: 5, attackWeight: 3.0},
		{name: "Co-Co NL", country: "NL", asn: 64515, share: 0.011, groups: 1, nsPerGroup: 2, prefixes24: 1, capacityPPS: 2.4e4, baseRTTms: 6, attackWeight: 2.6},
		{name: "NMU Group", country: "SE", asn: 64516, share: 0.011, groups: 1, nsPerGroup: 2, prefixes24: 1, capacityPPS: 2.8e4, baseRTTms: 22, attackWeight: 2.4},
		{name: "My Lock De", country: "DE", asn: 64517, share: 0.010, groups: 1, nsPerGroup: 2, prefixes24: 1, capacityPPS: 3.2e4, baseRTTms: 12, attackWeight: 2.2},
		{name: "DigiHosting NL", country: "NL", asn: 64518, share: 0.010, groups: 1, nsPerGroup: 2, prefixes24: 1, capacityPPS: 3.4e4, baseRTTms: 6, attackWeight: 2.2},
		{name: "Linode", country: "US", asn: 63949, share: 0.01, groups: 1, nsPerGroup: 3, prefixes24: 2, capacityPPS: 3e5, baseRTTms: 90, attackWeight: 1.8, secondASN: 21844},
		{name: "ITandTEL", country: "AT", asn: 29081, share: 0.009, groups: 1, nsPerGroup: 2, prefixes24: 1, capacityPPS: 4.0e4, baseRTTms: 18, attackWeight: 2.0},
		{name: "Contabo", country: "DE", asn: 51167, share: 0.012, groups: 1, nsPerGroup: 2, prefixes24: 2, capacityPPS: 7e4, baseRTTms: 12, attackWeight: 2.0},
		{name: "Euskaltel", country: "ES", asn: 12338, share: 0.010, groups: 1, nsPerGroup: 2, prefixes24: 1, capacityPPS: 2.6e4, baseRTTms: 28, attackWeight: 2.2},
	}
}

// openResolverEntries are the public resolvers that appear as NS targets of
// misconfigured domains (Table 5).
type openResolverEntry struct {
	addr     string
	provider string // must match a namedProviders name
	weight   float64
}

func openResolverEntries() []openResolverEntry {
	return []openResolverEntry{
		{addr: "8.8.4.4", provider: "Google", weight: 70},
		{addr: "8.8.8.8", provider: "Google", weight: 57},
		{addr: "1.1.1.1", provider: "Cloudflare", weight: 28},
	}
}

// worldBuilder carries generation state.
type worldBuilder struct {
	cfg  WorldConfig
	rng  *rand.Rand
	db   *dnsdb.DB
	topo *astopo.Builder
	w    *World
	// next24 allocates fresh /24s for nameserver placement.
	next24     uint32
	orgs       map[astopo.ASN]astopo.Org
	anycast24s []netx.Prefix
	// openResGroups are indexes into w.Groups of the open-resolver
	// pseudo-groups; misconfigured domains delegate to them.
	openResGroups []int
}

// GenerateWorld builds the ecosystem.
func GenerateWorld(cfg WorldConfig) *World {
	b := &worldBuilder{
		cfg:  cfg,
		rng:  rand.New(rand.NewPCG(cfg.Seed, 0x77071)),
		db:   dnsdb.New(),
		topo: astopo.NewBuilder(),
		orgs: make(map[astopo.ASN]astopo.Org),
		// nameserver space: 81.0.0.0 upward, one fresh /24 at a time
		next24: 0x51000000 >> 8,
	}
	b.w = &World{
		Config:        cfg,
		DB:            b.db,
		Named:         make(map[string]dnsdb.ProviderID),
		AttackWeights: make(map[netx.Addr]float64),
		OpenRes:       openres.WellKnown(),
		OtherSpace:    netx.MustParsePrefix("120.0.0.0/6"),
	}
	b.buildNamed()
	b.buildGenerics()
	b.buildDomains()
	b.buildOtherSpace()
	b.buildCensus()
	b.finish()
	return b.w
}

// alloc24 returns a fresh /24 for nameserver placement.
func (b *worldBuilder) alloc24() netx.Prefix {
	p := netx.Prefix{Addr: netx.Addr(b.next24 << 8), Bits: 24}
	b.next24++
	return p
}

func (b *worldBuilder) announce(p netx.Prefix, asn astopo.ASN) {
	b.topo.Announce(p, asn)
}

func (b *worldBuilder) setOrg(asn astopo.ASN, name, country string) {
	if _, ok := b.orgs[asn]; !ok {
		b.orgs[asn] = astopo.Org{Name: name, Country: country}
		b.topo.SetOrg(asn, astopo.Org{Name: name, Country: country})
	}
}

// addProviderNS creates a provider's nameservers according to a template,
// returning the groups created.
func (b *worldBuilder) addProviderNS(t providerTemplate) []Group {
	pid := b.db.AddProvider(dnsdb.Provider{
		Name:           t.name,
		Country:        t.country,
		ASNs:           []astopo.ASN{t.asn},
		Deployment:     deploymentOf(t),
		ScrubbingSince: t.scrubbingSince,
	})
	b.w.Named[t.name] = pid
	b.setOrg(t.asn, t.name, t.country)
	groups := make([]Group, 0, t.groups)
	for g := 0; g < t.groups; g++ {
		// allocate the group's /24 pool
		n24 := t.prefixes24
		if n24 <= 0 {
			n24 = 1
		}
		pool := make([]netx.Prefix, n24)
		for i := range pool {
			pool[i] = b.alloc24()
			asn := t.asn
			if t.secondASN != 0 && i >= (n24+1)/2 {
				asn = t.secondASN
				b.setOrg(asn, t.name+" Alt", t.country)
			}
			b.announce(pool[i], asn)
			if t.anycast || (t.partialAnycast && i == 0) {
				b.anycast24s = append(b.anycast24s, pool[i])
			}
		}
		// the group's host names ("ns1.<label>", "ns2.<label>", …) are
		// cut from one arena sized for the longest
		label := hostLabel(t.name, g)
		var hosts strings.Builder
		hosts.Grow(t.nsPerGroup * (len("ns.") + len(strconv.Itoa(t.nsPerGroup)) + len(label)))
		grp := Group{Provider: pid, NS: make([]dnsdb.NameserverID, 0, t.nsPerGroup)}
		for i := 0; i < t.nsPerGroup; i++ {
			p := pool[i%len(pool)]
			addr := p.Nth(uint64(10 + b.rng.IntN(200)))
			for {
				if _, exists := b.db.NameserverByAddr(addr); !exists {
					break
				}
				addr = p.Nth(uint64(10 + b.rng.IntN(200)))
			}
			isAny := t.anycast || (t.partialAnycast && i == 0)
			sites := 1
			if isAny {
				sites = t.sites
				if sites < 2 {
					sites = 8
				}
			}
			start := hosts.Len()
			hosts.WriteString("ns")
			hosts.WriteString(strconv.Itoa(i + 1))
			hosts.WriteByte('.')
			hosts.WriteString(label)
			id, err := b.db.AddNameserver(dnsdb.Nameserver{
				Host:        hosts.String()[start:],
				Addr:        addr,
				Provider:    pid,
				Anycast:     isAny,
				Sites:       sites,
				CapacityPPS: t.capacityPPS,
				BaseRTT:     b.baseRTT(t.baseRTTms),
			})
			if err != nil {
				panic(err) // fresh /24 allocation guarantees uniqueness
			}
			grp.NS = append(grp.NS, id)
			if t.attackWeight > 0 {
				b.w.AttackWeights[addr] = t.attackWeight
			}
		}
		groups = append(groups, grp)
	}
	b.w.Groups = append(b.w.Groups, groups...)
	return groups
}

func deploymentOf(t providerTemplate) dnsdb.Deployment {
	switch {
	case t.anycast:
		return dnsdb.DeployAnycast
	case t.partialAnycast:
		return dnsdb.DeployPartialAnycast
	default:
		return dnsdb.DeployUnicast
	}
}

func hostLabel(name string, group int) string {
	var buf [64]byte
	label := buf[:0]
	for _, c := range name {
		switch {
		case c >= 'A' && c <= 'Z':
			label = append(label, byte(c-'A'+'a'))
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9':
			label = append(label, byte(c))
		}
	}
	return string(label) + "-g" + strconv.Itoa(group) + ".net"
}

// baseRTT draws a jittered base RTT around a mean in milliseconds.
func (b *worldBuilder) baseRTT(ms float64) time.Duration {
	j := stats.LogNormal(b.rng, 0, 0.15)
	return time.Duration(ms * j * float64(time.Millisecond))
}
