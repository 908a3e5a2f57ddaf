// Package simnet is the simulated data plane between the measurement
// vantage point and the authoritative nameservers. It converts the attack
// schedule into per-query outcomes: the round-trip time of a successful
// query, a drop (resolver-side timeout), or a SERVFAIL from an overloaded
// server.
//
// The model captures the mechanisms the paper reasons about:
//
//   - Queueing congestion: utilization ρ of the server's uplink drives an
//     M/M/1-style RTT inflation base×(1 + ρ/(1-ρ)) and, past saturation,
//     drops with probability 1−1/ρ.
//   - Shared /24 infrastructure: attacks on *other* hosts in a nameserver's
//     /24 partially load the nameserver's upstream (the mil.ru bottleneck,
//     §5.2.3).
//   - Anycast: attack traffic spreads across a server's sites, dividing the
//     per-site load (§6.6.1); the vantage point reaches one site.
//   - Application-aware attacks: port-53 floods stress the DNS software as
//     well as the link, making resolution failure (and SERVFAIL) more
//     likely — the §6.3.1 port-skew of successful attacks.
//   - Scrubbing: providers with DDoS protection shed most attack load after
//     a deployment delay and recover immediately when the attack ends;
//     unprotected providers keep a decaying residual impairment (the
//     8-hour tail of the December TransIP attack, §5.1).
//   - Invisible vectors: reflection/direct components load the victim but
//     produce no telescope backscatter — one cause of the weak
//     intensity/impact correlation (§6.4).
package simnet

import (
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"time"

	"dnsddos/internal/attacksim"
	"dnsddos/internal/clock"
	"dnsddos/internal/dnsdb"
	"dnsddos/internal/netx"
	"dnsddos/internal/nsset"
)

// Params are the data-plane model constants. Zero value is unusable; use
// DefaultParams.
type Params struct {
	// Slash24Coupling is the fraction of a same-/24 neighbor's attack
	// load that spills onto a nameserver's upstream.
	Slash24Coupling float64
	// AppPortWeight is the extra server-side weight of attacks on port
	// 53 relative to pure link floods.
	AppPortWeight float64
	// LinkPortWeight is the weight of non-DNS-port floods.
	LinkPortWeight float64
	// ScrubDelay is how long a scrubbing provider needs to engage
	// mitigation after an attack starts.
	ScrubDelay time.Duration
	// ScrubEfficiency is the fraction of attack load removed once
	// scrubbing is engaged.
	ScrubEfficiency float64
	// RecoveryTau is the residual-impairment decay constant after an
	// attack ends for providers without scrubbing.
	RecoveryTau time.Duration
	// ScrubbedRecoveryTau is the decay constant with scrubbing.
	ScrubbedRecoveryTau time.Duration
	// MaxRTTInflation caps the congestion multiplier.
	MaxRTTInflation float64
	// JitterSigma is the lognormal sigma of per-query RTT noise.
	JitterSigma float64
	// BaseDropProb is the floor packet-loss probability.
	BaseDropProb float64
	// ServFailShare is the probability that a failed query on an
	// app-overloaded server surfaces as SERVFAIL rather than a timeout
	// (the paper sees 92% timeout / 8% SERVFAIL, §6.3.1).
	ServFailShare float64
	// QueryTimeout is the resolver's per-query timeout; inflated RTTs
	// beyond it count as timeouts.
	QueryTimeout time.Duration
}

// DefaultParams returns the calibrated model constants.
func DefaultParams() Params {
	return Params{
		Slash24Coupling:     0.7,
		AppPortWeight:       1.0,
		LinkPortWeight:      0.55,
		ScrubDelay:          20 * time.Minute,
		ScrubEfficiency:     0.85,
		RecoveryTau:         3 * time.Hour,
		ScrubbedRecoveryTau: 5 * time.Minute,
		MaxRTTInflation:     200,
		JitterSigma:         0.08,
		BaseDropProb:        0.0005,
		ServFailShare:       0.08,
		QueryTimeout:        5 * time.Second,
	}
}

// Blackout marks a period during which nameservers inside a prefix are
// unreachable from the vantage point regardless of load — the model for
// operator geofencing, as when mil.ru was restricted to Russian sources
// during the March 2022 attacks (§5.2.1).
type Blackout struct {
	Prefix netx.Prefix
	From   time.Time
	To     time.Time
}

// Covers reports whether the blackout applies to addr at time t.
func (b Blackout) Covers(addr netx.Addr, t time.Time) bool {
	return b.Prefix.Contains(addr) && !t.Before(b.From) && t.Before(b.To)
}

// specRef is one attack component that can load one nameserver, with what
// does not depend on the query time worked out once.
type specRef struct {
	spec     *attacksim.Spec // into Schedule.Specs(): shared, read-only
	coupling float64         // 1 on the server's own address, Slash24Coupling on a /24 neighbour's
	weight   float64         // the spec's server-side port weight
	// from and until bracket the query times, in Unix nanoseconds, at which
	// the spec can matter: the start of its first window to the end of its
	// longest possible residual. Conservative — LoadStateAt still runs every
	// exact check inside it — so the bracket only ever skips a zero.
	from, until int64
	// maxUntil is the largest until of this ref and those before it in its
	// run: non-decreasing, so it can be binary-searched where until cannot.
	maxUntil int64
}

func (e *specRef) covers(at int64) bool { return e.from <= at && at <= e.until }

// candidates returns the refs of run that can cover at: from the first
// whose running max of until reaches at to the last that starts at or
// before it. Every ref outside them fails covers(at), so the first test —
// the run's whole bracket — may return none.
func candidates(run []specRef, at int64) []specRef {
	if len(run) == 0 || at < run[0].from || at > run[len(run)-1].maxUntil {
		return nil
	}
	lo := sort.Search(len(run), func(i int) bool { return run[i].maxUntil >= at })
	return run[lo : lo+sort.Search(len(run)-lo, func(i int) bool { return run[lo+i].from > at })]
}

// Net is the data plane. It is immutable after New and safe for concurrent
// readers (per-query randomness comes from the caller's rng). New resolves
// the schedule against the frozen DB once, so a query indexes the attacks
// that can touch its nameserver instead of hashing an address per lookup.
type Net struct {
	params Params
	db     *dnsdb.DB
	// specs holds, per NameserverID, the attack components that load the
	// server as two runs — those on its own address, then those on its /24
	// neighbours — each in schedule order, which is from order: the order
	// LoadStateAt sums in.
	specs     [][2][]specRef
	blackouts []Blackout
	// vantage is the measurement location this view queries from; see
	// WithVantage.
	vantage Vantage
}

// New builds the data plane for a frozen world and attack schedule.
// Optional blackouts model geofencing events.
func New(params Params, db *dnsdb.DB, sched *attacksim.Schedule, blackouts ...Blackout) *Net {
	n := &Net{
		params:    params,
		db:        db,
		specs:     make([][2][]specRef, len(db.Nameservers)),
		blackouts: blackouts,
		vantage:   DefaultVantage(),
	}
	if sched == nil {
		return n
	}
	bySlash24 := make(map[netx.Prefix][]dnsdb.NameserverID)
	for i := range db.Nameservers {
		k := db.Nameservers[i].Addr.Slash24()
		bySlash24[k] = append(bySlash24[k], dnsdb.NameserverID(i))
	}
	// past this long after its end a spec has neither load nor residual
	tail := max(8*max(params.RecoveryTau, params.ScrubbedRecoveryTau), clock.WindowDur)
	specs := sched.Specs()
	// index fills run k of every server: 0 its own address's, 1 its /24
	// neighbours'
	index := func(k int, coupling float64) {
		for i := range specs {
			s := &specs[i]
			ids := bySlash24[s.Target.Slash24()]
			if len(ids) == 0 {
				continue // nearly every spec: no nameserver in the victim's /24
			}
			ref := specRef{spec: s, coupling: coupling, weight: n.portWeight(s),
				from: clock.WindowOf(s.Start).UnixNano(), until: s.End.Add(tail).UnixNano()}
			for _, id := range ids {
				if (db.Nameservers[id].Addr == s.Target) != (k == 0) {
					continue
				}
				run := &n.specs[id][k]
				ref.maxUntil = ref.until
				if len(*run) > 0 {
					ref.maxUntil = max(ref.until, (*run)[len(*run)-1].maxUntil)
				}
				*run = append(*run, ref)
			}
		}
	}
	index(0, 1)
	if params.Slash24Coupling > 0 {
		index(1, params.Slash24Coupling)
	}
	return n
}

// portWeight returns the server-side weight of an attack component based on
// whether it targets the DNS service port (anything else, ICMP included,
// stresses the link only).
func (n *Net) portWeight(s *attacksim.Spec) float64 {
	if slices.Contains(s.Ports, 53) {
		return n.params.AppPortWeight
	}
	return n.params.LinkPortWeight
}

// scrubFactor returns the fraction of attack load that still reaches the
// victim given the provider's scrubbing state at time t.
func (n *Net) scrubFactor(scrubbing bool, s *attacksim.Spec, t time.Time) float64 {
	if !scrubbing {
		return 1
	}
	if t.Before(s.Start.Add(n.params.ScrubDelay)) {
		return 1
	}
	return 1 - n.params.ScrubEfficiency
}

// LoadState summarizes the attack-induced state of a nameserver at one
// instant.
type LoadState struct {
	// LinkUtil is uplink utilization (all vectors, all ports).
	LinkUtil float64
	// AppUtil is DNS-application utilization (port-53 components).
	AppUtil float64
	// Residual is decayed post-attack impairment, in utilization units.
	Residual float64
}

// Utilization returns the effective congestion utilization driving RTT
// inflation and loss.
func (ls LoadState) Utilization() float64 {
	u := ls.LinkUtil
	if ls.Residual > u {
		u = ls.Residual
	}
	return u
}

// LoadStateAt computes the LoadState of nameserver id at time t.
func (n *Net) LoadStateAt(id dnsdb.NameserverID, t time.Time) LoadState {
	var ls LoadState
	// most queries land outside every attack that can touch the server:
	// answer those before any per-query set-up
	at := t.UnixNano()
	runs := [2][]specRef{candidates(n.specs[id][0], at), candidates(n.specs[id][1], at)}
	if len(runs[0])+len(runs[1]) == 0 {
		return ls
	}
	ns := &n.db.Nameservers[id]
	provider := &n.db.Providers[ns.Provider]
	w := clock.WindowOf(t)
	// anycast spreads attack load across sites, but not evenly: the
	// vantage's catchment site carries its own share (§4.3 limitation 4)
	sites := float64(ns.Sites)
	if sites < 1 {
		sites = 1
	}
	siteFactor := siteLoadFactor(ns, n.siteOf(ns))
	sites /= siteFactor
	cap := ns.CapacityPPS
	if cap <= 0 {
		cap = 1
	}
	for _, refs := range runs {
		for i := range refs {
			e := &refs[i]
			if !e.covers(at) {
				continue
			}
			s, coupling := e.spec, e.coupling
			load := s.WindowLoad(w)
			if load > 0 {
				load *= n.scrubFactor(provider.ScrubbingAt(t), s, t) * coupling / sites
				ls.LinkUtil += load * e.weight / cap
				if e.weight >= n.params.AppPortWeight {
					ls.AppUtil += load / cap
				}
				continue
			}
			// residual impairment after the attack ends
			if !s.End.After(t) {
				tau := n.params.RecoveryTau
				if provider.ScrubbingAt(s.End) {
					tau = n.params.ScrubbedRecoveryTau
				}
				age := t.Sub(s.End)
				if age > 8*tau {
					continue
				}
				endW := clock.WindowOf(s.End.Add(-time.Nanosecond))
				peak := s.WindowLoad(endW) * n.scrubFactor(provider.ScrubbingAt(s.End), s, s.End) * coupling / sites
				res := peak / cap * math.Exp(-float64(age)/float64(tau))
				// residual impairment can keep a server effectively down
				// for hours after the flood stops (the RDZ railways
				// recovery the morning after, §5.2.2); cap only to keep
				// the decay arithmetic sane
				if res > 50 {
					res = 50
				}
				if res > ls.Residual {
					ls.Residual = res
				}
			}
		}
	}
	return ls
}

// Query simulates one DNS query from the vantage point to nameserver id at
// time t, returning the outcome status and, for StatusOK, the RTT.
func (n *Net) Query(rng *rand.Rand, id dnsdb.NameserverID, t time.Time) (nsset.QueryStatus, time.Duration) {
	ns := &n.db.Nameservers[id]
	for _, b := range n.blackouts {
		if b.Covers(ns.Addr, t) {
			return nsset.StatusTimeout, 0
		}
	}
	ls := n.LoadStateAt(id, t)
	u := ls.Utilization()

	// loss from saturation
	drop := n.params.BaseDropProb
	switch {
	case u >= 1:
		drop = 1 - 1/u
		if drop < 0.5 {
			drop = 0.5 // saturated servers shed at least half the queries
		}
	case u > 0.85:
		drop += (u - 0.85) / 0.15 * 0.25
	}
	if rng.Float64() < drop {
		// an app-overloaded server may emit SERVFAIL instead of
		// silently dropping
		if ls.AppUtil > 0.8 && rng.Float64() < n.params.ServFailShare {
			return nsset.StatusServFail, 0
		}
		return nsset.StatusTimeout, 0
	}

	// congestion-inflated RTT. Below the knee the M/M/1 waiting-time
	// factor applies; past it, admission drops (above) shed load and the
	// surviving queries see a linear overload ramp — saturated servers
	// still answer a thinned stream, just slowly.
	inflation := 1.0
	switch {
	case u <= 0:
	case u < 0.9:
		inflation = 1 + u/(1-u)
	default:
		inflation = 10 + (u-0.9)*50
	}
	if inflation > n.params.MaxRTTInflation {
		inflation = n.params.MaxRTTInflation
	}
	jitter := math.Exp(n.params.JitterSigma * rng.NormFloat64())
	rtt := time.Duration(float64(n.baseRTTFrom(ns)) * inflation * jitter)
	if rtt >= n.params.QueryTimeout {
		return nsset.StatusTimeout, 0
	}
	return nsset.StatusOK, rtt
}

// Params returns the model constants in use.
func (n *Net) Params() Params { return n.params }

// DB returns the world the net serves.
func (n *Net) DB() *dnsdb.DB { return n.db }
