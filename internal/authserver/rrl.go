// rrl.go implements response rate limiting (RRL), the standard
// authoritative-server defense against the spoofed floods and
// amplification abuse the paper's victims face: responses to any one
// source /24 are token-bucket limited, and a configurable fraction of
// limited responses "slip" out as minimal truncated answers instead of
// silence, so a legitimate client behind a spoofed prefix can still
// reach the server by retrying over TCP (BIND/NSD's SLIP behaviour).
package authserver

import (
	"net/netip"
	"sync"
	"time"
)

// RRLConfig enables per-source response rate limiting.
type RRLConfig struct {
	// ResponsesPerSecond is the sustained response budget per source
	// /24 (IPv4) or /56 (IPv6). Zero disables RRL.
	ResponsesPerSecond float64
	// Burst is the bucket depth — how many back-to-back responses a
	// quiet source may draw before the rate applies. Zero means
	// ResponsesPerSecond (a one-second burst); either way it is at least
	// one response, so a sub-1 rate still answers a quiet source.
	Burst float64
	// Slip sends every Slip-th rate-limited response as a minimal
	// truncated (TC) answer instead of dropping it, inviting the real
	// owner of the address to retry over TCP. Zero never slips;
	// BIND's default is 2.
	Slip int
}

// rrlAction is the limiter's verdict for one response.
type rrlAction int

const (
	rrlSend rrlAction = iota
	rrlDrop
	rrlSlip
)

// rrlBucketCap bounds the tracked-prefix table; when exceeded, buckets
// idle longer than rrlIdleEvict are swept. A flood from spoofed /24s
// cannot grow the table without bound.
const (
	rrlBucketCap  = 1 << 16
	rrlIdleEvict  = 10 * time.Second
	rrlSweepEvery = 4096
)

// rrlBucket is one source prefix's token bucket and slip sequence. The
// bucket runs on the callers' clock, never reading it itself: last is
// the newest now it has judged.
type rrlBucket struct {
	tokens  float64
	last    time.Time
	slipSeq int
}

// allow judges one response stamped now: refill for the time since last,
// up to burst, then take one token. An older now refills nothing and
// moves no clock back, so it costs its one token and drains nothing more.
func (b *rrlBucket) allow(now time.Time, rate, burst float64) bool {
	if d := now.Sub(b.last); d > 0 {
		b.tokens = min(b.tokens+rate*d.Seconds(), burst)
		b.last = now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// rrlLimiter applies RRLConfig across source prefixes.
type rrlLimiter struct {
	cfg RRLConfig

	mu      sync.Mutex
	buckets map[netip.Prefix]*rrlBucket
	sinceGC int
}

func newRRLLimiter(cfg RRLConfig) *rrlLimiter {
	if cfg.Burst <= 0 {
		cfg.Burst = cfg.ResponsesPerSecond
	}
	// a bucket that can never hold a whole token would deny everything
	cfg.Burst = max(cfg.Burst, 1)
	return &rrlLimiter{cfg: cfg, buckets: make(map[netip.Prefix]*rrlBucket)}
}

// sourcePrefix maps a peer to its rate-limit bucket: the /24 for IPv4
// sources (an IPv4-mapped IPv6 peer of a dual-stack socket included),
// /56 for IPv6, following RRL practice of limiting the prefix a spoofing
// attacker actually controls responses toward. A netip.Prefix is a
// comparable value, so keying the table by it allocates nothing.
func sourcePrefix(peer netip.AddrPort) netip.Prefix {
	a := peer.Addr().Unmap()
	bits := 56
	if a.Is4() {
		bits = 24
	}
	p, _ := a.Prefix(bits)
	return p
}

// account charges one response to the peer's prefix and returns the
// verdict: send, drop, or slip (send a minimal truncated answer). now is
// read before the lock, so concurrent workers may arrive out of order;
// the bucket refills only forward in time, so an older now is charged
// its one token and drains nothing more.
func (l *rrlLimiter) account(peer netip.AddrPort, now time.Time) rrlAction {
	key := sourcePrefix(peer)
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.buckets[key]
	if b == nil {
		l.maybeSweep(now)
		b = &rrlBucket{tokens: l.cfg.Burst, last: now}
		l.buckets[key] = b
	}
	if b.allow(now, l.cfg.ResponsesPerSecond, l.cfg.Burst) {
		return rrlSend
	}
	if l.cfg.Slip > 0 {
		b.slipSeq++
		if b.slipSeq%l.cfg.Slip == 0 {
			return rrlSlip
		}
	}
	return rrlDrop
}

// maybeSweep evicts idle buckets when the table is over capacity. Called
// with the lock held, amortized over insertions.
func (l *rrlLimiter) maybeSweep(now time.Time) {
	l.sinceGC++
	if len(l.buckets) < rrlBucketCap || l.sinceGC < rrlSweepEvery {
		return
	}
	l.sinceGC = 0
	for k, b := range l.buckets {
		if now.Sub(b.last) > rrlIdleEvict {
			delete(l.buckets, k)
		}
	}
}
