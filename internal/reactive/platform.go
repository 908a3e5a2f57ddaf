// Package reactive implements the paper's reactive measurement platform
// (§4.3.1): a streaming pipeline that watches the RSDoS feed and, within
// ten minutes of an attack starting, begins probing up to 50 domains
// delegating to the attacked nameservers — every authoritative nameserver
// individually (NS-exhaustive, unlike OpenINTEL's agnostic resolution),
// every 5 minutes, with the 50 probes spread evenly across each window
// (≈ one query per 6 seconds, the §8 ethical rate limit), continuing for
// 24 hours after the attack to capture the post-attack baseline.
//
// The paper built this on Kafka, Spark Structured Streaming and Flume; here
// Platform.Watch stands in for that plumbing: it takes the ordered attack
// feed and returns one campaign per distinct attack, in feed order.
package reactive

import (
	"math/rand/v2"
	"sort"
	"time"

	"dnsddos/internal/clock"
	"dnsddos/internal/dnsdb"
	"dnsddos/internal/netx"
	"dnsddos/internal/nsset"
	"dnsddos/internal/resolver"
	"dnsddos/internal/rsdos"
)

// Config tunes the reactive prober.
type Config struct {
	// MaxDomains caps the domains probed per attack (50 in the paper, an
	// ethical limit on load added to infrastructure under attack, §8).
	MaxDomains int
	// Round is the probing cadence (5 minutes).
	Round time.Duration
	// Tail is how long probing continues after the attack ends (24 h,
	// to capture the post-attack baseline).
	Tail time.Duration
	// MaxTriggerDelay is the worst-case delay between attack start and
	// the first probe (≤ 10 minutes in the paper's deployment).
	MaxTriggerDelay time.Duration
}

// DefaultConfig returns the paper's deployment parameters.
func DefaultConfig() Config {
	return Config{
		MaxDomains:      50,
		Round:           5 * time.Minute,
		Tail:            24 * time.Hour,
		MaxTriggerDelay: 10 * time.Minute,
	}
}

// Probe is one exhaustive-mode measurement: one query to one specific
// nameserver for one domain.
type Probe struct {
	Time   time.Time
	Domain dnsdb.DomainID
	NS     dnsdb.NameserverID
	Status nsset.QueryStatus
	RTT    time.Duration
}

// Campaign is the full probing record for one attack.
type Campaign struct {
	Attack rsdos.Attack
	// Triggered is when probing began (Start + trigger delay).
	Triggered time.Time
	// Domains are the sampled domains (≤ MaxDomains).
	Domains []dnsdb.DomainID
	// Probes are all measurements in time order.
	Probes []Probe
}

// Platform reacts to feed attacks by launching probing campaigns. All
// probing runs in simulation time through the resolver's transport.
type Platform struct {
	cfg Config
	db  *dnsdb.DB
	res *resolver.Resolver
	rng *rand.Rand
}

// NewPlatform builds a platform. rng drives domain sampling and probe
// outcomes.
func NewPlatform(cfg Config, db *dnsdb.DB, res *resolver.Resolver, rng *rand.Rand) *Platform {
	if cfg.MaxDomains <= 0 {
		cfg.MaxDomains = 50
	}
	if cfg.Round <= 0 {
		cfg.Round = 5 * time.Minute
	}
	return &Platform{cfg: cfg, db: db, res: res, rng: rng}
}

// React runs the full campaign for one attack: from trigger (attack start
// plus a delay ≤ MaxTriggerDelay) until attack end plus Tail. The caller
// supplies the attack with its final extent, as when replaying a feed
// (Watch replays one).
func (p *Platform) React(a rsdos.Attack) *Campaign {
	c := &Campaign{Attack: a}
	// trigger delay: the pipeline publishes 5-minute batches, so the
	// delay is up to one window plus processing, bounded by the config
	delay := time.Duration(p.rng.Int64N(int64(p.cfg.MaxTriggerDelay)))
	c.Triggered = a.Start().Add(delay)
	c.Domains = p.sampleDomains(a)
	if len(c.Domains) == 0 {
		return c
	}
	end := a.End().Add(p.cfg.Tail)
	for roundStart := c.Triggered; roundStart.Before(end); roundStart = roundStart.Add(p.cfg.Round) {
		p.probeRound(c, roundStart)
	}
	return c
}

// sampleDomains joins the attacked IP with the NS→domain mapping and
// samples up to MaxDomains related domains.
func (p *Platform) sampleDomains(a rsdos.Attack) []dnsdb.DomainID {
	ns, ok := p.db.NameserverByAddr(a.Victim)
	if !ok {
		return nil
	}
	all := p.db.DomainsOf(ns.ID)
	if len(all) <= p.cfg.MaxDomains {
		out := make([]dnsdb.DomainID, len(all))
		copy(out, all)
		return out
	}
	// reservoir-free sampling: shuffle a copy of indexes
	idx := p.rng.Perm(len(all))[:p.cfg.MaxDomains]
	sort.Ints(idx)
	out := make([]dnsdb.DomainID, 0, p.cfg.MaxDomains)
	for _, i := range idx {
		out = append(out, all[i])
	}
	return out
}

// probeRound issues one round of probes: each sampled domain is probed
// against every one of its nameservers, with probe times spread evenly
// across the round (≈ one query per 6 s for 50 domains).
func (p *Platform) probeRound(c *Campaign, start time.Time) {
	n := len(c.Domains)
	step := p.cfg.Round / time.Duration(n)
	for i, d := range c.Domains {
		t := start.Add(time.Duration(i) * step)
		for _, nsID := range p.db.Domains[d].NS {
			o := p.res.QueryNS(p.rng, nsID, t)
			c.Probes = append(c.Probes, Probe{
				Time:   t,
				Domain: d,
				NS:     nsID,
				Status: o.Status,
				RTT:    o.RTT,
			})
		}
	}
}

// WindowAvailability summarizes a campaign per 5-minute window: the
// fraction of probes answered, overall and per nameserver.
type WindowAvailability struct {
	Window clock.Window
	OK     int
	Total  int
	PerNS  map[dnsdb.NameserverID][2]int // [ok, total]
}

// Rate returns the answered fraction.
func (wa WindowAvailability) Rate() float64 {
	if wa.Total == 0 {
		return 0
	}
	return float64(wa.OK) / float64(wa.Total)
}

// Availability folds the campaign's probes into per-window availability.
func (c *Campaign) Availability() []WindowAvailability {
	byWin := make(map[clock.Window]*WindowAvailability)
	for _, pr := range c.Probes {
		w := clock.WindowOf(pr.Time)
		wa := byWin[w]
		if wa == nil {
			wa = &WindowAvailability{Window: w, PerNS: make(map[dnsdb.NameserverID][2]int)}
			byWin[w] = wa
		}
		wa.Total++
		cnt := wa.PerNS[pr.NS]
		cnt[1]++
		if pr.Status == nsset.StatusOK {
			wa.OK++
			cnt[0]++
		}
		wa.PerNS[pr.NS] = cnt
	}
	out := make([]WindowAvailability, 0, len(byWin))
	for _, wa := range byWin {
		out = append(out, *wa)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Window < out[j].Window })
	return out
}

// RecoveryTime returns when availability first reached the threshold at or
// after the attack end (the RDZ "intermittently responsive at 06:00 next
// day" analysis, §5.2.2). ok is false if it never recovered within the
// campaign.
func (c *Campaign) RecoveryTime(threshold float64) (time.Time, bool) {
	for _, wa := range c.Availability() {
		if !wa.Window.Start().Before(c.Attack.End()) && wa.Rate() >= threshold {
			return wa.Window.Start(), true
		}
	}
	return time.Time{}, false
}

// UnresolvableDuringAttack reports whether every probe during the attack
// interval failed (the mil.ru outcome, §5.2.1).
func (c *Campaign) UnresolvableDuringAttack() bool {
	any := false
	for _, pr := range c.Probes {
		if pr.Time.Before(c.Attack.End()) && !pr.Time.Before(c.Attack.Start()) {
			any = true
			if pr.Status == nsset.StatusOK {
				return false
			}
		}
	}
	return any
}

// Watch launches a campaign for each attack of the feed, in feed order,
// skipping repeat feed entries for the same (victim, start window). It
// processes attacks sequentially in simulation time (probing itself is
// simulated), on the caller's goroutine.
func (p *Platform) Watch(feed []rsdos.Attack) []*Campaign {
	type key struct {
		victim netx.Addr
		start  clock.Window
	}
	seen := make(map[key]bool, len(feed))
	var campaigns []*Campaign
	for _, a := range feed {
		k := key{a.Victim, a.StartWindow}
		if seen[k] {
			continue
		}
		seen[k] = true
		campaigns = append(campaigns, p.React(a))
	}
	return campaigns
}
