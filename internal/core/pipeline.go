// Package core implements the paper's primary contribution: the data-join
// pipeline of Figure 1 and §4. It joins RSDoS attack inferences with the
// active DNS measurement data to answer, per attack: which nameservers and
// domains were under attack, and what happened to resolution performance
// (Eq. 1 impact) and availability (timeout/SERVFAIL rates) while it lasted.
//
// Pipeline steps (§4):
//  1. aggregate OpenINTEL measurements per NSSet in 5-minute windows
//     (internal/nsset, fed by internal/openintel);
//  2. map attacked IPs to nameservers under attack using the previous
//     day's nameserver list;
//  3. extract the domains those nameservers host;
//  4. use the per-NSSet RTT data to infer performance impairment.
//
// The join engine is join.go's one pass over the feed; the historical
// linear scan survives only as the reference oracle in legacy_test.go,
// which the parity tests compare against.
package core

import (
	"context"
	"slices"
	"time"

	"dnsddos/internal/anycast"
	"dnsddos/internal/astopo"
	"dnsddos/internal/clock"
	"dnsddos/internal/dnsdb"
	"dnsddos/internal/netx"
	"dnsddos/internal/nsset"
	"dnsddos/internal/obs"
	"dnsddos/internal/openres"
	"dnsddos/internal/rsdos"
)

// Class is the target classification of an attack.
type Class uint8

// Attack target classes.
const (
	// ClassOther: the victim IP is not DNS infrastructure.
	ClassOther Class = iota
	// ClassDNSDirect: the victim IP is an authoritative nameserver.
	ClassDNSDirect
	// ClassDNSSlash24: the victim shares a /24 with a nameserver but is
	// not one itself.
	ClassDNSSlash24
	// ClassOpenResolver: the victim is a public open resolver that
	// appears in NS records only through misconfiguration; filtered
	// from the authoritative analysis (§6.1).
	ClassOpenResolver
)

// String renders the class label.
func (c Class) String() string {
	switch c {
	case ClassOther:
		return "other"
	case ClassDNSDirect:
		return "dns-direct"
	case ClassDNSSlash24:
		return "dns-slash24"
	case ClassOpenResolver:
		return "open-resolver"
	default:
		return "unknown"
	}
}

// ClassifiedAttack pairs an RSDoS attack with its target classification.
// It refers to the attack rather than copying it: Attack points into the
// feed that Classify or EventsContext was handed.
type ClassifiedAttack struct {
	*rsdos.Attack
	Class Class
	// NSRecorded reports whether the victim IP appears in NS records of
	// registered domains (true for authoritative servers and for open
	// resolvers that misconfigured domains delegate to).
	NSRecorded bool
	// NS is the attacked nameserver for NS-recorded victims.
	NS dnsdb.NameserverID
}

// DNSInfra reports whether the attack counts as "toward an IP used as a DNS
// nameserver" (the Table 3/4/5 population, which includes NS-recorded open
// resolvers before the §6.1 filtering).
func (ca *ClassifiedAttack) DNSInfra() bool {
	return ca.NSRecorded
}

// Config tunes the pipeline.
type Config struct {
	// MinMeasuredDomains is the noise filter of §6.3: NSSets with fewer
	// measured domains during the attack are dropped from the
	// performance analysis.
	MinMeasuredDomains int
	// FilterOpenResolvers removes open-resolver victims from the
	// DNS-infrastructure analysis (on in the paper; the ablation bench
	// turns it off).
	FilterOpenResolvers bool
	// UsePrevDaySnapshot selects the §4.2 join rule (nameserver list of
	// the day before the attack). The ablation uses same-day instead.
	UsePrevDaySnapshot bool
	// BaselineDaysBack selects the Eq. 1 denominator: 1 = day before
	// (paper default); 7 = week before (ablation).
	BaselineDaysBack int
}

// DefaultConfig returns the paper's settings.
func DefaultConfig() Config {
	return Config{
		MinMeasuredDomains:  5,
		FilterOpenResolvers: true,
		UsePrevDaySnapshot:  true,
		BaselineDaysBack:    1,
	}
}

// Pipeline is the frozen join context: world, measurements, and metadata.
// Construct it with NewPipeline; all fields are internal and set through
// functional options, so new engine knobs never widen a constructor
// signature again.
type Pipeline struct {
	cfg     Config
	db      *dnsdb.DB
	census  *anycast.Census
	topo    *astopo.Table
	openRes *openres.List

	// days is the day-snapshot surface the join reads (daystore.go),
	// attached via WithDayStore; an empty aggregator by default.
	days DayStore

	// ix is the immutable nameserver-side join index (index.go), built at
	// construction.
	ix *NSIndex
	// domainNSSets, when set, is the openintel engine's per-domain key
	// cache, reused instead of recomputing keys from the DB.
	domainNSSets []nsset.Key

	// metrics receives join instrumentation (joinMetrics, join.go); nil
	// disables it.
	metrics joinMetrics

	// quarantined marks days whose measurement sweep was skipped
	// (panicked or timed out under the supervised study run); snapshot
	// and baseline lookups walk back past them.
	quarantined map[clock.Day]bool
}

// Option configures a Pipeline at construction.
type Option func(*Pipeline)

// WithConfig sets the pipeline configuration (default DefaultConfig).
func WithConfig(cfg Config) Option {
	return func(p *Pipeline) { p.cfg = cfg }
}

// WithCensus attaches the anycast census for §6.6 enrichment; nil
// degrades gracefully.
func WithCensus(c *anycast.Census) Option {
	return func(p *Pipeline) { p.census = c }
}

// WithTopology attaches the AS topology table for origin-AS enrichment;
// nil degrades gracefully.
func WithTopology(t *astopo.Table) Option {
	return func(p *Pipeline) { p.topo = t }
}

// WithOpenResolvers attaches the open-resolver list the §6.1 filter
// consults; nil disables the filter.
func WithOpenResolvers(l *openres.List) Option {
	return func(p *Pipeline) { p.openRes = l }
}

// WithDayStore attaches the measured days the join reads: the sealed days
// of a study run (internal/daystore.Set, from files or in-memory images),
// or a live *nsset.Aggregator, the reference the sealed days are held to.
// The default joins zero measurements. Both backends are
// observation-equivalent and produce byte-identical events
// (TestJoinParityColumnar).
func WithDayStore(ds DayStore) Option {
	return func(p *Pipeline) { p.days = ds }
}

// WithMetrics threads an observability registry through the join engine:
// victim, attack and event counts — all registered volatile (they stay
// out of deterministic stable snapshots).
func WithMetrics(reg *obs.Registry) Option {
	return func(p *Pipeline) { p.metrics = newJoinMetrics(reg) }
}

// WithDomainNSSets reuses a precomputed per-domain NSSet key slice
// (openintel.Engine.DomainNSSets) for the index build, skipping the
// O(domains × set size) key recomputation.
func WithDomainNSSets(keys []nsset.Key) Option {
	return func(p *Pipeline) { p.domainNSSets = keys }
}

// NewPipeline builds the join context over the world DB. All tuning —
// configuration, measured days, metadata sources, engine tuning —
// arrives through options; the zero-option pipeline joins with the
// paper's DefaultConfig against an empty aggregator and no metadata
// (enrichment degrades gracefully).
func NewPipeline(db *dnsdb.DB, opts ...Option) *Pipeline {
	p := &Pipeline{
		cfg: DefaultConfig(),
		db:  db,
	}
	for _, o := range opts {
		o(p)
	}
	if p.days == nil {
		p.days = nsset.NewAggregator()
	}
	p.ix = BuildNSIndex(db, p.domainNSSets)
	return p
}

// SetQuarantinedDays marks days without usable measurements (quarantined
// day-shards of a supervised run). Snapshot-day and baseline-day lookups
// step back past them — the same move OpenINTEL makes when a devastated
// zone could not be measured and the previous day's NS list stands in
// (§3.2) — so a single lost day does not silently drop every event whose
// join day it was. Call before Events.
func (p *Pipeline) SetQuarantinedDays(days []clock.Day) {
	if p.quarantined == nil {
		p.quarantined = make(map[clock.Day]bool, len(days))
	}
	for _, d := range days {
		p.quarantined[d] = true
	}
}

// maxQuarantineFallback bounds how many consecutive quarantined days a
// lookup walks past before giving up (a week of lost sweeps means the
// baseline is no longer comparable anyway).
const maxQuarantineFallback = 7

// measurableDay returns d, or the nearest earlier non-quarantined day.
func (p *Pipeline) measurableDay(d clock.Day) clock.Day {
	return MeasurableDay(d, p.quarantined)
}

// MeasurableDay is the day the join reads in place of d: d, or the
// nearest earlier day not in quarantined, walking past at most a week of
// quarantined days (the day it stops on may still be quarantined). The
// study's sweep demand follows the same walk.
func MeasurableDay(d clock.Day, quarantined map[clock.Day]bool) clock.Day {
	for i := 0; i < maxQuarantineFallback && quarantined[d]; i++ {
		d = d.Prev()
	}
	return d
}

// classifyVictim classifies a single victim address — the per-victim
// core of Classify, shared with the join engine (which classifies each
// distinct victim once instead of once per attack).
func (p *Pipeline) classifyVictim(v netx.Addr) (class Class, nsRecorded bool, ns dnsdb.NameserverID) {
	if n, ok := p.db.NameserverByAddr(v); ok {
		nsRecorded = true
		ns = n.ID
	}
	switch {
	case p.cfg.FilterOpenResolvers && p.openRes != nil && p.openRes.Contains(v):
		class = ClassOpenResolver
	case nsRecorded:
		class = ClassDNSDirect
	case p.ix.HasNSInSlash24(v):
		class = ClassDNSSlash24
	default:
		class = ClassOther
	}
	return class, nsRecorded, ns
}

// Classify assigns each attack its target class (step 2 of the join).
// Entry i's Attack is &attacks[i]: the result aliases the caller's feed,
// which must not be modified while the result is read.
func (p *Pipeline) Classify(attacks []rsdos.Attack) []ClassifiedAttack {
	out := make([]ClassifiedAttack, len(attacks))
	for i := range attacks {
		ca := &out[i]
		ca.Attack = &attacks[i]
		ca.Class, ca.NSRecorded, ca.NS = p.classifyVictim(attacks[i].Victim)
	}
	return out
}

// Event is one joined (attack, NSSet) observation — the unit of the §6.3
// performance analysis (the paper's "12,691 distinct events of attacks to
// distinct NSSets").
type Event struct {
	Attack ClassifiedAttack
	NSSet  nsset.Key
	// HostedDomains is how many registered domains delegate to this
	// NSSet (the x-axis of Figs. 7–8).
	HostedDomains int
	// MeasuredDomains is how many domain measurements fell inside the
	// attack windows.
	MeasuredDomains int
	// OK/Timeouts/ServFails total the outcomes inside attack windows.
	OK        int
	Timeouts  int
	ServFails int
	// Impact is the Eq. 1 maximum over attack windows; HasImpact is
	// false when no window had both measurements and a baseline.
	Impact    float64
	HasImpact bool
	// FailureRate is the worst per-window failure fraction.
	FailureRate float64
	// Diversity and AnycastClass summarize the §6.6 resilience
	// dimensions at attack time.
	Diversity    nsset.Diversity
	AnycastClass nsset.AnycastClass
	// ASNs are the origin ASes of the NSSet members.
	ASNs []astopo.ASN
	// Provider is the operator of the attacked nameserver.
	Provider string
}

// FailedCompletely reports whether every measured domain failed (the
// "complete failure in resolution" cases of §6.3.1).
func (e *Event) FailedCompletely() bool {
	return e.MeasuredDomains > 0 && e.OK == 0
}

// Events runs steps 2–4 of the join for the given attacks, producing one
// event per (attack, NSSet) with at least MinMeasuredDomains measurements
// during the attack.
func (p *Pipeline) Events(attacks []rsdos.Attack) []Event {
	out, _ := p.EventsContext(context.Background(), attacks)
	return out
}

// enrich fills diversity, anycast, AS and provider metadata. An NSSet is a
// handful of addresses, so its /24s and origin ASes are deduplicated by
// scanning small stack arrays (more than 16 distinct ones spill to the
// heap); the event's ASN list is the only allocation.
func (p *Pipeline) enrich(e *Event, at time.Time) {
	var (
		prefixBuf [16]netx.Prefix
		asnBuf    [16]astopo.ASN
	)
	prefixes, asns := prefixBuf[:0], asnBuf[:0]
	d := nsset.Diversity{NumNS: e.NSSet.Size()}
	for i := 0; i < d.NumNS; i++ {
		a := e.NSSet.Addr(i)
		if pf := a.Slash24(); !slices.Contains(prefixes, pf) {
			prefixes = append(prefixes, pf)
		}
		if p.topo != nil {
			if asn, ok := p.topo.Lookup(a); ok && !slices.Contains(asns, asn) {
				asns = append(asns, asn)
			}
		}
		if p.census != nil && p.census.IsAnycastAt(a, at) {
			d.NumAnycast++
		}
	}
	d.NumASNs = len(asns)
	d.NumPrefixes = len(prefixes)
	e.Diversity = d
	e.AnycastClass = d.Class()
	slices.Sort(asns)
	e.ASNs = append(make([]astopo.ASN, 0, len(asns)), asns...)
	if e.Attack.Class == ClassDNSDirect {
		e.Provider = p.db.ProviderOf(e.Attack.NS).Name
	}
}

// DomainsUnderAttack returns, for a DNS-direct attack, the number of
// registered domains whose NSSet includes the victim (step 3 of the join;
// the Fig. 5 quantity "domains potentially affected").
func (p *Pipeline) DomainsUnderAttack(ca ClassifiedAttack) int {
	if ca.Class != ClassDNSDirect {
		return 0
	}
	return len(p.db.DomainsOf(ca.NS))
}

// DayStore returns the day-snapshot surface the join engines read: the
// WithDayStore backend, or the empty default.
func (p *Pipeline) DayStore() DayStore { return p.days }
