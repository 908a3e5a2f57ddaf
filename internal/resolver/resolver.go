// Package resolver implements the measurement platform's stub resolver.
//
// The agnostic mode reproduces OpenINTEL's unbound behaviour (§3.2): for
// each registered domain it picks an authoritative nameserver uniformly at
// random for the first query, retrying against other nameservers on
// failure within a bounded budget. Because retries burn time, a partially
// degraded NSSet shows up as inflated resolution RTT, and a fully degraded
// one as TIMEOUT/SERVFAIL — exactly the signals the paper's Eq. 1 and
// failure analysis consume.
//
// The exhaustive mode queries one specific nameserver (no retries); the
// reactive measurement platform (§4.3.1) uses it to probe every
// authoritative server of a domain under attack individually.
package resolver

import (
	"math/rand/v2"
	"slices"
	"time"

	"dnsddos/internal/dnsdb"
	"dnsddos/internal/nsset"
	"dnsddos/internal/simnet"
)

// Transport issues a single DNS query to a nameserver at a simulated time.
// *simnet.Net implements it; tests substitute fakes.
type Transport interface {
	Query(rng *rand.Rand, id dnsdb.NameserverID, t time.Time) (nsset.QueryStatus, time.Duration)
}

// Config tunes the resolver.
type Config struct {
	// PerTryTimeout is how long one query attempt may take before the
	// resolver moves on; a timed-out attempt contributes this much to
	// the measured resolution time.
	PerTryTimeout time.Duration
	// MaxTries bounds the number of nameservers tried per resolution.
	MaxTries int
	// FollowDelegation makes the resolver bootstrap from the parent-side
	// delegation (as a cold-cache recursive resolver does) and treat
	// parent-listed servers that are not in the zone's own NS set as
	// lame: they answer, but not authoritatively, burning a round trip.
	// OpenINTEL's explicit NS queries go to the zone's own (child)
	// servers, so the study's sweep runs with it off
	// (study.DefaultConfig, §3.2); the end-user paths and the
	// delegation ablation turn it on.
	FollowDelegation bool
}

// DefaultConfig mirrors a conservative unbound setup: sub-second per-try
// timeout, up to three nameservers tried.
func DefaultConfig() Config {
	return Config{PerTryTimeout: 800 * time.Millisecond, MaxTries: 3, FollowDelegation: true}
}

// Outcome is the result of one resolution or probe.
type Outcome struct {
	Status nsset.QueryStatus
	// RTT is the total resolution time, including time burned by failed
	// attempts before a success. Zero unless Status is StatusOK.
	RTT time.Duration
	// Tries is the number of attempts made.
	Tries int
	// NS is the nameserver that produced the final answer (or the last
	// one tried on failure).
	NS dnsdb.NameserverID
}

// Resolver performs agnostic and exhaustive resolution over a Transport.
type Resolver struct {
	cfg Config
	db  *dnsdb.DB
	tr  Transport
}

// New builds a resolver for the given world and transport.
func New(cfg Config, db *dnsdb.DB, tr Transport) *Resolver {
	if cfg.MaxTries < 1 {
		cfg.MaxTries = 1
	}
	return &Resolver{cfg: cfg, db: db, tr: tr}
}

// Resolve performs an agnostic resolution of domain d at time t: random
// nameserver order, retry on failure, cumulative timing.
//
// With FollowDelegation set, the candidate order starts from the
// parent-side delegation; a parent-listed server missing from the zone's
// own NS set is lame — it responds (non-authoritatively), the resolver
// discards the answer, and it falls through to the child-set servers the
// lame referral pointed away from.
func (r *Resolver) Resolve(rng *rand.Rand, d dnsdb.DomainID, t time.Time) Outcome {
	dom := &r.db.Domains[d]
	ns := dom.NS
	boot := ns
	if r.cfg.FollowDelegation {
		boot = r.db.DelegationNS(d)
	}
	if len(boot) == 0 {
		return Outcome{Status: nsset.StatusServFail}
	}
	// random bootstrap order; stale delegations may omit child servers,
	// so append any missing child servers after the delegation set (the
	// explicit NS query reveals them). This runs once per record: the
	// order sits in a stack array (append spills a set past 16 to the
	// heap by itself) and membership in a handful of servers is a scan.
	var buf [16]dnsdb.NameserverID
	order := append(buf[:0], boot...)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	if r.cfg.FollowDelegation && r.db.Inconsistent(d) {
		for _, id := range ns {
			if !slices.Contains(boot, id) {
				order = append(order, id)
			}
		}
	}

	tries := min(r.cfg.MaxTries, len(order))
	var elapsed time.Duration
	sawServFail := false
	var last dnsdb.NameserverID
	for i := 0; i < tries; i++ {
		id := order[i]
		last = id
		status, rtt := r.tr.Query(rng, id, t.Add(elapsed))
		if status == nsset.StatusOK && rtt >= r.cfg.PerTryTimeout {
			// the answer exists but arrives after the resolver gave
			// up on this server — a timed-out try
			status = nsset.StatusTimeout
		}
		if status == nsset.StatusOK && !slices.Contains(ns, id) {
			// lame delegation: the server answered, but it is not
			// authoritative for this zone (Akiwate et al., cited in
			// §7); the answer is discarded and the round trip
			// charged
			sawServFail = true
			elapsed += rtt
			continue
		}
		switch status {
		case nsset.StatusOK:
			return Outcome{Status: nsset.StatusOK, RTT: elapsed + rtt, Tries: i + 1, NS: id}
		case nsset.StatusServFail:
			sawServFail = true
			// a SERVFAIL comes back quickly; charge a nominal
			// round trip before the next try
			elapsed += r.db.Nameservers[id].BaseRTT
		default: // timeout
			elapsed += r.cfg.PerTryTimeout
		}
	}
	st := nsset.StatusTimeout
	if sawServFail {
		st = nsset.StatusServFail
	}
	return Outcome{Status: st, Tries: tries, NS: last}
}

// QueryNS probes one specific nameserver once (exhaustive mode).
func (r *Resolver) QueryNS(rng *rand.Rand, id dnsdb.NameserverID, t time.Time) Outcome {
	status, rtt := r.tr.Query(rng, id, t)
	o := Outcome{Status: status, Tries: 1, NS: id}
	if status == nsset.StatusOK {
		o.RTT = rtt
	}
	return o
}

// DB returns the world the resolver operates on.
func (r *Resolver) DB() *dnsdb.DB { return r.db }

var _ Transport = (*simnet.Net)(nil)
