// Package dnsdb models the registered-domain ecosystem the study measures:
// providers operating authoritative nameservers, the nameservers themselves
// (unicast or anycast, with a finite handling capacity), and registered
// domains delegating to sets of those nameservers.
//
// This is the synthetic stand-in for the union of TLD zone files OpenINTEL
// measures (§3.2). The world is generated by internal/scenario; this package
// holds the data structures and the indexes the join pipeline needs
// (nameserver IP → hosted domains, per-day snapshots).
package dnsdb

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"dnsddos/internal/astopo"
	"dnsddos/internal/netx"
)

// NameserverID indexes DB.Nameservers.
type NameserverID int32

// ProviderID indexes DB.Providers.
type ProviderID int32

// DomainID indexes DB.Domains.
type DomainID int32

// Deployment describes how a provider places its nameservers; it drives the
// resilience analysis of §6.6.
type Deployment int

// Deployment styles.
const (
	// DeployUnicast: every nameserver is a single physical host.
	DeployUnicast Deployment = iota
	// DeployAnycast: every nameserver address is anycast across many sites.
	DeployAnycast
	// DeployPartialAnycast: a subset of the NSSet is anycast (§6.6.1
	// "partial anycast deployments").
	DeployPartialAnycast
)

// String renders the deployment style.
func (d Deployment) String() string {
	switch d {
	case DeployUnicast:
		return "unicast"
	case DeployAnycast:
		return "anycast"
	case DeployPartialAnycast:
		return "partial-anycast"
	default:
		return fmt.Sprintf("deployment(%d)", int(d))
	}
}

// Provider is a DNS hosting organization.
type Provider struct {
	ID         ProviderID
	Name       string
	Country    string
	ASNs       []astopo.ASN
	Deployment Deployment
	// ScrubbingSince is when the provider put a DDoS
	// protection/scrubbing service in front of its nameservers; zero
	// means never. TransIP deployed scrubbing between its December-2020
	// and March-2021 attacks (§5.1), which is why the March impairment
	// window matched the telescope window while December's overran it.
	ScrubbingSince time.Time
}

// ScrubbingAt reports whether scrubbing protection is available at time t.
func (p *Provider) ScrubbingAt(t time.Time) bool {
	return !p.ScrubbingSince.IsZero() && !t.Before(p.ScrubbingSince)
}

// Nameserver is one authoritative nameserver address.
type Nameserver struct {
	ID       NameserverID
	Host     string // e.g. "ns1.example-dns.net"
	Addr     netx.Addr
	Provider ProviderID
	Anycast  bool
	// Sites is the number of anycast sites (1 for unicast). Attack
	// traffic spreads across sites, so effective per-site load is
	// attack/Sites — the §6.6.1 resilience mechanism.
	Sites int
	// CapacityPPS is the packet rate the server (and its uplink) can
	// absorb before resolution latency degrades.
	CapacityPPS float64
	// BaseRTT is the unloaded round-trip time from the measurement
	// vantage point (single vantage in the Netherlands, §4.3.1) to this
	// server (to the nearest anycast site for anycast servers).
	BaseRTT time.Duration
}

// Domain is one registered domain delegating to a set of nameservers.
//
// NS is the child-side (zone apex) nameserver set — the authoritative
// answer OpenINTEL prefers (§3.2). A domain may also have an inconsistent
// parent-side (registry) delegation, which its DB keeps (DB.ParentNS):
// stale NS records at the TLD that differ from the zone's own. The
// paper's platform issues explicit NS queries exactly to resolve this
// inconsistency toward the child; the prevalence and risks of such
// disagreement are the subject of the cited Sommese et al. PAM 2020 study.
type Domain struct {
	ID DomainID
	// ThirdPartyWeb marks domains whose web content is hosted elsewhere
	// than their DNS provider (the 27% TransIP observation, §5.1.1).
	ThirdPartyWeb bool
	Name          string
	NS            []NameserverID // child-side set; sorted, no duplicates
}

// DB is the ecosystem database. It is immutable after Freeze and safe for
// concurrent readers.
type DB struct {
	Providers   []Provider
	Nameservers []Nameserver
	Domains     []Domain

	// parentNS holds the parent-side delegations that differ from their
	// domain's NS, ascending by domain: a few per cent of domains have one.
	parentNS    []parentDelegation
	byAddr      map[netx.Addr]NameserverID
	domainsByNS [][]DomainID
	frozen      bool
}

// parentDelegation is one domain's inconsistent parent-side delegation.
type parentDelegation struct {
	domain DomainID
	ns     []NameserverID
}

// New returns an empty database.
func New() *DB {
	return &DB{byAddr: make(map[netx.Addr]NameserverID)}
}

// AddProvider appends a provider and returns its ID.
func (db *DB) AddProvider(p Provider) ProviderID {
	db.mustMutable()
	p.ID = ProviderID(len(db.Providers))
	db.Providers = append(db.Providers, p)
	return p.ID
}

// AddNameserver appends a nameserver and returns its ID. Addresses must be
// unique: a nameserver is identified by its IP in the RSDoS join.
func (db *DB) AddNameserver(ns Nameserver) (NameserverID, error) {
	db.mustMutable()
	if _, dup := db.byAddr[ns.Addr]; dup {
		return 0, fmt.Errorf("dnsdb: duplicate nameserver address %s", ns.Addr)
	}
	if ns.Sites < 1 {
		ns.Sites = 1
	}
	ns.ID = NameserverID(len(db.Nameservers))
	db.Nameservers = append(db.Nameservers, ns)
	db.byAddr[ns.Addr] = ns.ID
	return ns.ID, nil
}

// AddDomain appends a domain and returns its ID. parentNS, when given, is
// the domain's parent-side delegation. NS lists are kept sorted and
// duplicate-free; a parent list identical to NS is dropped (consistent).
// A list that arrives in that form is kept as it is, so domains added
// from one group's list share its array; any other list is copied first —
// the caller's slice is never written.
func (db *DB) AddDomain(d Domain, parentNS ...NameserverID) DomainID {
	db.mustMutable()
	d.NS = canonicalNS(d.NS)
	d.ID = DomainID(len(db.Domains))
	if len(parentNS) > 0 {
		if parent := canonicalNS(parentNS); !slices.Equal(parent, d.NS) {
			db.parentNS = append(db.parentNS, parentDelegation{domain: d.ID, ns: parent})
		}
	}
	db.Domains = append(db.Domains, d)
	return d.ID
}

// ParentNS returns domain d's parent-side delegation when it differs from
// the child set, nil when the two are consistent (shared slice; callers
// must not mutate).
func (db *DB) ParentNS(d DomainID) []NameserverID {
	i, ok := slices.BinarySearchFunc(db.parentNS, d, func(p parentDelegation, d DomainID) int { return cmp.Compare(p.domain, d) })
	if !ok {
		return nil
	}
	return db.parentNS[i].ns
}

// DelegationNS returns the nameserver set a resolver bootstrapping from
// the parent would contact first for domain d: the parent-side set when
// inconsistent, the child set otherwise.
func (db *DB) DelegationNS(d DomainID) []NameserverID {
	if parent := db.ParentNS(d); parent != nil {
		return parent
	}
	return db.Domains[d].NS
}

// Inconsistent reports whether domain d's parent and child delegations
// disagree.
func (db *DB) Inconsistent(d DomainID) bool { return db.ParentNS(d) != nil }

// canonicalNS returns ns sorted and duplicate-free: ns itself when it
// already is, a sorted and compacted copy otherwise.
func canonicalNS(ns []NameserverID) []NameserverID {
	ascending := true
	for i := 1; i < len(ns) && ascending; i++ {
		ascending = ns[i-1] < ns[i]
	}
	if ascending {
		return ns
	}
	ns = slices.Clone(ns)
	slices.Sort(ns)
	return slices.Compact(ns)
}

func (db *DB) mustMutable() {
	if db.frozen {
		panic("dnsdb: mutation after Freeze")
	}
}

// Freeze builds the reverse indexes and seals the database. The domains
// of every nameserver are cut from one array, counted first: each
// nameserver's list is a sub-slice with its capacity clamped to its
// length, filled in domain order.
func (db *DB) Freeze() {
	if db.frozen {
		return
	}
	count := make([]int, len(db.Nameservers))
	total := 0
	for i := range db.Domains {
		for _, ns := range db.Domains[i].NS {
			count[ns]++
		}
		total += len(db.Domains[i].NS)
	}
	ids := make([]DomainID, total)
	db.domainsByNS = make([][]DomainID, len(db.Nameservers))
	at := 0
	for ns, n := range count {
		if n > 0 {
			db.domainsByNS[ns] = ids[at : at : at+n]
			at += n
		}
	}
	for i := range db.Domains {
		for _, ns := range db.Domains[i].NS {
			db.domainsByNS[ns] = append(db.domainsByNS[ns], db.Domains[i].ID)
		}
	}
	db.frozen = true
}

// NameserverByAddr resolves an IP address to a nameserver, the first join
// step of the pipeline (attacked IP → nameserver under attack, §4.2).
func (db *DB) NameserverByAddr(a netx.Addr) (Nameserver, bool) {
	id, ok := db.byAddr[a]
	if !ok {
		return Nameserver{}, false
	}
	return db.Nameservers[id], true
}

// DomainsOf returns the IDs of domains delegating to nameserver id (shared
// slice; callers must not mutate).
func (db *DB) DomainsOf(id NameserverID) []DomainID {
	if !db.frozen {
		panic("dnsdb: DomainsOf before Freeze")
	}
	return db.domainsByNS[id]
}

// NumDomainsOf returns how many domains delegate to nameserver id.
func (db *DB) NumDomainsOf(id NameserverID) int { return len(db.DomainsOf(id)) }

// ProviderOf returns the provider operating nameserver id.
func (db *DB) ProviderOf(id NameserverID) Provider {
	return db.Providers[db.Nameservers[id].Provider]
}

// NSAddrs returns the nameserver addresses of a domain, sorted.
func (db *DB) NSAddrs(d DomainID) []netx.Addr {
	dom := db.Domains[d]
	out := make([]netx.Addr, len(dom.NS))
	for i, id := range dom.NS {
		out[i] = db.Nameservers[id].Addr
	}
	slices.Sort(out)
	return out
}

// AllNSAddrs returns the set of all authoritative nameserver addresses known
// to the platform (what "IPs used as DNS nameservers" means in Table 3).
func (db *DB) AllNSAddrs() map[netx.Addr]NameserverID {
	out := make(map[netx.Addr]NameserverID, len(db.byAddr))
	for a, id := range db.byAddr {
		out[a] = id
	}
	return out
}
