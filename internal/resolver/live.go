// live.go gives the real-socket path the same resolution semantics the
// simulated agnostic resolver has (resolver.go): random nameserver
// rotation, per-try timeout, retry with jittered exponential backoff,
// SERVFAIL vs timeout classification, and TC→TCP fallback. A LiveResolver
// outcome carries an nsset.QueryStatus, so live runs against
// internal/authserver feed the same nsset aggregation (Eq. 1) as
// simulated sweeps — the point of the fault-injection data plane.
package resolver

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"time"

	"dnsddos/internal/dnswire"
	"dnsddos/internal/nsset"
	"dnsddos/internal/obs"
	"dnsddos/internal/resilience"
)

// LiveConfig tunes the live resolver. NewLiveResolver applies the zero
// meaning each field documents: the zero value is three immediate tries
// of 800ms each, with no TCP fallback and no circuit breaker.
type LiveConfig struct {
	// PerTryTimeout bounds one query attempt; zero means 800ms
	// (mirroring DefaultConfig for the simulated resolver).
	PerTryTimeout time.Duration
	// MaxTries bounds total attempts. It may exceed the nameserver list
	// length: attempts rotate through the shuffled list, wrapping
	// around, the way unbound re-probes servers it has already tried.
	// Zero means 3.
	MaxTries int
	// Backoff is the base delay before the second try; later tries grow
	// it with decorrelated jitter (resilience.RetryBudget) up to
	// MaxBackoff. Zero disables backoff — retries go out immediately, as
	// unbound does within its first burst.
	Backoff time.Duration
	// MaxBackoff caps the backoff growth; zero means 2s.
	MaxBackoff time.Duration
	// BreakerThreshold, when > 0, enables per-server circuit breaking
	// (resilience.Breaker): a server that times out or errors this many
	// times in a row is skipped in rotation until BreakerCooldown
	// elapses, then probed half-open. A SERVFAIL answer counts as the
	// server being up. Zero disables the breaker.
	BreakerThreshold int
	// BreakerCooldown is how long an open server circuit refuses
	// attempts before a probe; zero means 2s.
	BreakerCooldown time.Duration
	// EDNSPayload is advertised on UDP queries when nonzero.
	EDNSPayload uint16
	// TCPFallback retries truncated UDP answers over TCP (RFC 7766).
	TCPFallback bool
	// Wrap, when set, wraps every UDP client socket — the client-side
	// fault-injection hook.
	Wrap func(net.Conn) net.Conn
	// WrapTCP wraps fallback TCP connections.
	WrapTCP func(net.Conn) net.Conn
	// Metrics, when non-nil, receives per-try RTTs and retry/fallback
	// outcome counts under resolver.live.* names. Nil disables
	// instrumentation at the cost of one branch per observation.
	Metrics *obs.Registry
}

// LiveOutcome is the result of one live resolution, shaped like the
// simulated Outcome so both feed nsset.Aggregator.Add identically.
type LiveOutcome struct {
	// Status classifies the resolution with the OpenINTEL statuses the
	// paper's analysis consumes (OK / TIMEOUT / SERVFAIL).
	Status nsset.QueryStatus
	// RTT is the total resolution time including time burned by failed
	// attempts and backoff, as the measuring resolver experiences it
	// (§4.1's RTT). Zero unless Status is StatusOK.
	RTT time.Duration
	// Tries is the number of attempts made.
	Tries int
	// Server is the address that produced the final answer (or the last
	// one tried on failure).
	Server string
	// UsedTCP reports whether the final answer arrived over the TCP
	// fallback path.
	UsedTCP bool
	// Msg is the decoded answer; nil on failure.
	Msg *dnswire.Message
}

// LiveResolver resolves over real sockets with retry, rotation, and
// backoff. It is safe for concurrent use.
type LiveResolver struct {
	cfg     LiveConfig
	m       liveMetrics
	budget  *resilience.RetryBudget
	breaker *resilience.Breaker // nil when BreakerThreshold == 0

	mu  sync.Mutex
	rng *rand.Rand
}

// liveMetrics instruments the live resolution path: one histogram per
// attempt (tryRTT, successes and failures alike — the time each try
// burned) and one per completed resolution (rtt, the cumulative Eq. 1
// RTT on success), plus counters classifying tries and final outcomes.
// All fields are nil (no-ops) when LiveConfig.Metrics is nil.
type liveMetrics struct {
	tries        *obs.Counter
	tryTimeouts  *obs.Counter
	tryServFails *obs.Counter
	tryErrors    *obs.Counter
	tcpFallbacks *obs.Counter
	ok           *obs.Counter
	servfail     *obs.Counter
	timeout      *obs.Counter
	breakerOpens *obs.Counter
	breakerSkips *obs.Counter
	tryRTT       *obs.Histogram
	rtt          *obs.Histogram
}

func newLiveMetrics(reg *obs.Registry) liveMetrics {
	return liveMetrics{
		tries:        reg.Counter("resolver.live.tries"),
		tryTimeouts:  reg.Counter("resolver.live.try_timeouts"),
		tryServFails: reg.Counter("resolver.live.try_servfails"),
		tryErrors:    reg.Counter("resolver.live.try_errors"),
		tcpFallbacks: reg.Counter("resolver.live.tcp_fallbacks"),
		ok:           reg.Counter("resolver.live.resolved_ok"),
		servfail:     reg.Counter("resolver.live.resolved_servfail"),
		timeout:      reg.Counter("resolver.live.resolved_timeout"),
		breakerOpens: reg.Counter("resolver.live.breaker_opens"),
		breakerSkips: reg.Counter("resolver.live.breaker_skips"),
		tryRTT:       reg.Histogram("resolver.live.try_rtt"),
		rtt:          reg.Histogram("resolver.live.rtt"),
	}
}

// NewLiveResolver builds a live resolver. rng drives shuffle order and
// backoff jitter; nil seeds one from crypto/rand (tests pass a seeded
// generator for determinism, per the repo convention).
func NewLiveResolver(cfg LiveConfig, rng *rand.Rand) *LiveResolver {
	if cfg.PerTryTimeout <= 0 {
		cfg.PerTryTimeout = 800 * time.Millisecond
	}
	if cfg.MaxTries < 1 {
		cfg.MaxTries = 3
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 2 * time.Second
	}
	if rng == nil {
		var seed [16]byte
		crand.Read(seed[:])
		rng = rand.New(rand.NewPCG(
			binary.LittleEndian.Uint64(seed[:8]),
			binary.LittleEndian.Uint64(seed[8:])))
	}
	r := &LiveResolver{cfg: cfg, m: newLiveMetrics(cfg.Metrics), rng: rng}
	// the budget gets a derived generator: it locks its own jitter draws,
	// so sharing the shuffle rng would double-lock and couple the streams
	r.budget = resilience.NewRetryBudget(cfg.MaxTries, cfg.Backoff, cfg.MaxBackoff,
		rand.New(rand.NewPCG(rng.Uint64(), rng.Uint64())))
	if cfg.BreakerThreshold > 0 {
		r.breaker = resilience.NewBreaker(resilience.BreakerConfig{
			Threshold: cfg.BreakerThreshold,
			Cooldown:  cfg.BreakerCooldown,
			OnStateChange: func(_ string, _, to resilience.BreakerState) {
				if to == resilience.BreakerOpen {
					r.m.breakerOpens.Inc()
				}
			},
		})
	}
	return r
}

// tryStatus classifies one attempt.
type tryStatus int

const (
	tryOK tryStatus = iota
	tryTimeout
	tryServFail
	tryOther // dial/send/decode errors — server unreachable or garbage
)

// Resolve performs an agnostic live resolution of (name, qtype) against
// the nameserver address list: random rotation order, per-try timeout,
// jittered exponential backoff between attempts, cumulative timing. The
// final status mirrors the simulated resolver: OK on any success, else
// SERVFAIL if any server answered with a failure rcode, else TIMEOUT.
func (r *LiveResolver) Resolve(ctx context.Context, addrs []string, name string, qtype dnswire.Type) LiveOutcome {
	if len(addrs) == 0 {
		return LiveOutcome{Status: nsset.StatusServFail}
	}
	var room [8]string // longer lists spill to the heap by themselves
	order := append(room[:0], addrs...)
	r.mu.Lock()
	r.rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	r.mu.Unlock()

	client := &UDPClient{
		Timeout:     r.cfg.PerTryTimeout,
		EDNSPayload: r.cfg.EDNSPayload,
		Wrap:        r.cfg.Wrap,
	}
	start := time.Now()
	sawServFail := false
	var last string
	tries := 0
	sess := r.budget.Session()
	for i := 0; ; i++ {
		// Wait charges the attempt against the shared retry budget and
		// paces it with decorrelated jitter; false = out of tries or ctx
		// cancelled mid-backoff.
		if !sess.Wait(ctx) {
			break
		}
		addr := r.pickServer(order, i)
		last = addr
		tries++
		r.m.tries.Inc()
		tryStart := time.Now()
		msg, usedTCP, st := r.tryOnce(ctx, client, addr, name, qtype)
		r.m.tryRTT.Observe(time.Since(tryStart))
		if usedTCP {
			r.m.tcpFallbacks.Inc()
		}
		// a SERVFAIL still proves the server is up: only timeouts and
		// transport errors count against its circuit
		r.breaker.Record(addr, st == tryOK || st == tryServFail, time.Now())
		switch st {
		case tryOK:
			rtt := time.Since(start)
			r.m.ok.Inc()
			r.m.rtt.Observe(rtt)
			return LiveOutcome{
				Status:  nsset.StatusOK,
				RTT:     rtt,
				Tries:   tries,
				Server:  addr,
				UsedTCP: usedTCP,
				Msg:     msg,
			}
		case tryServFail:
			r.m.tryServFails.Inc()
			sawServFail = true
		case tryTimeout:
			r.m.tryTimeouts.Inc()
		case tryOther:
			r.m.tryErrors.Inc()
		}
	}
	st := nsset.StatusTimeout
	if sawServFail {
		st = nsset.StatusServFail
		r.m.servfail.Inc()
	} else {
		r.m.timeout.Inc()
	}
	return LiveOutcome{Status: st, Tries: tries, Server: last}
}

// Query implements the Client interface: one full retrying resolution
// against a single server address. A non-OK outcome (all tries timed out
// or failed) surfaces as an error; the RTT on success is the cumulative
// resolution time including retries and backoff (the Eq. 1 RTT).
func (r *LiveResolver) Query(ctx context.Context, addr, name string, qtype dnswire.Type) (*dnswire.Message, time.Duration, error) {
	o := r.Resolve(ctx, []string{addr}, name, qtype)
	if o.Status != nsset.StatusOK {
		return nil, 0, fmt.Errorf("resolver: live query %s for %s: %s after %d tries", addr, name, o.Status, o.Tries)
	}
	return o.Msg, o.RTT, nil
}

// tryOnce runs one attempt: UDP query, rcode classification, TC→TCP
// fallback when configured.
func (r *LiveResolver) tryOnce(ctx context.Context, client *UDPClient, addr, name string, qtype dnswire.Type) (*dnswire.Message, bool, tryStatus) {
	msg, _, err := client.Query(ctx, addr, name, qtype)
	if err != nil {
		var nerr net.Error
		if errors.As(err, &nerr) && nerr.Timeout() {
			return nil, false, tryTimeout
		}
		return nil, false, tryOther
	}
	if msg.Header.Truncated && r.cfg.TCPFallback {
		tc := &TCPClient{Timeout: r.cfg.PerTryTimeout, Wrap: r.cfg.WrapTCP}
		full, _, terr := tc.Query(ctx, addr, name, qtype)
		if terr != nil {
			var nerr net.Error
			if errors.As(terr, &nerr) && nerr.Timeout() {
				return nil, false, tryTimeout
			}
			return nil, false, tryOther
		}
		msg = full
		if st := classifyRCode(msg.Header.RCode); st != tryOK {
			return nil, true, st
		}
		return msg, true, tryOK
	}
	if st := classifyRCode(msg.Header.RCode); st != tryOK {
		return nil, false, st
	}
	return msg, false, tryOK
}

// classifyRCode maps a response code to an attempt status: SERVFAIL and
// REFUSED mean the server is up but failing (retry elsewhere); NOERROR
// and NXDOMAIN are authoritative answers (OK).
func classifyRCode(rc dnswire.RCode) tryStatus {
	switch rc {
	case dnswire.RCodeNoError, dnswire.RCodeNXDomain:
		return tryOK
	default:
		return tryServFail
	}
}

// pickServer returns the rotation's server for attempt i, skipping
// servers whose circuit is open. When every server's circuit refuses,
// the scheduled one is probed anyway — refusing all peers forever would
// turn a partial outage into a total one.
func (r *LiveResolver) pickServer(order []string, i int) string {
	if r.breaker == nil {
		return order[i%len(order)]
	}
	now := time.Now()
	for k := 0; k < len(order); k++ {
		cand := order[(i+k)%len(order)]
		if r.breaker.Allow(cand, now) {
			if k > 0 {
				r.m.breakerSkips.Add(int64(k))
			}
			return cand
		}
	}
	r.m.breakerSkips.Add(int64(len(order)))
	return order[i%len(order)]
}
