package resilience

import (
	"sync"
	"time"
)

// breaker.go: per-peer circuit breaking. A peer (a nameserver address)
// that fails Threshold times in a row is "open": attempts
// against it are refused for Cooldown, so retry budgets stop burning
// per-try timeouts on a host that is plainly down — which is exactly the
// failure mode a DDoS on authoritative infrastructure produces. After
// the cooldown the breaker goes half-open and admits a single probe; the
// probe's outcome closes the breaker or re-opens it for another
// cooldown. Callers that have nowhere else to go may force a probe
// early (Resolve with every server open) — refusing all peers forever
// would be worse than trying one.

// BreakerState is a peer's circuit state.
type BreakerState int

const (
	// BreakerClosed: the peer is healthy (or unproven); attempts flow.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the peer failed Threshold consecutive times; attempts
	// are refused until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: cooldown elapsed; exactly one probe is in flight.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// BreakerConfig tunes a Breaker.
type BreakerConfig struct {
	// Threshold is the consecutive-failure count that opens a peer's
	// circuit. <= 0 disables the breaker entirely (Allow always true).
	Threshold int
	// Cooldown is how long an open circuit refuses attempts before
	// half-opening for a probe. <= 0 defaults to DefaultCap.
	Cooldown time.Duration
	// OnStateChange, when set, observes every transition — the metrics
	// hook. Called without internal locks held beyond the peer's own.
	OnStateChange func(peer string, from, to BreakerState)
}

// Breaker tracks one circuit per peer name. Safe for concurrent use.
type Breaker struct {
	cfg   BreakerConfig
	mu    sync.Mutex
	peers map[string]*circuit
}

type circuit struct {
	state       BreakerState
	consecFails int
	openedAt    time.Time
}

// NewBreaker builds a per-peer breaker; a nil receiver or zero Threshold
// is a valid disabled breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = DefaultCap
	}
	return &Breaker{cfg: cfg, peers: make(map[string]*circuit)}
}

func (b *Breaker) enabled() bool { return b != nil && b.cfg.Threshold > 0 }

// Allow reports whether an attempt against peer should proceed at time
// now. An open circuit whose cooldown has elapsed transitions to
// half-open and admits this one call as the probe.
func (b *Breaker) Allow(peer string, now time.Time) bool {
	if !b.enabled() {
		return true
	}
	b.mu.Lock()
	c := b.peers[peer]
	if c == nil || c.state == BreakerClosed {
		b.mu.Unlock()
		return true
	}
	switch c.state {
	case BreakerOpen:
		if now.Sub(c.openedAt) < b.cfg.Cooldown {
			b.mu.Unlock()
			return false
		}
		c.state = BreakerHalfOpen
		b.mu.Unlock()
		b.notify(peer, BreakerOpen, BreakerHalfOpen)
		return true
	case BreakerHalfOpen:
		// one probe at a time; concurrent attempts wait for its verdict
		b.mu.Unlock()
		return false
	}
	b.mu.Unlock()
	return true
}

// Record reports an attempt's outcome for peer at time now. Success
// closes the circuit; failure counts toward Threshold (and re-opens a
// half-open circuit immediately).
func (b *Breaker) Record(peer string, ok bool, now time.Time) {
	if !b.enabled() {
		return
	}
	b.mu.Lock()
	c := b.peers[peer]
	if c == nil {
		c = &circuit{}
		b.peers[peer] = c
	}
	from := c.state
	if ok {
		c.consecFails = 0
		c.state = BreakerClosed
	} else {
		c.consecFails++
		if from == BreakerHalfOpen || c.consecFails >= b.cfg.Threshold {
			c.state = BreakerOpen
			c.openedAt = now
		}
	}
	to := c.state
	b.mu.Unlock()
	if from != to {
		b.notify(peer, from, to)
	}
}

// State returns peer's current circuit state (closed for unknown peers).
func (b *Breaker) State(peer string) BreakerState {
	if !b.enabled() {
		return BreakerClosed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if c := b.peers[peer]; c != nil {
		return c.state
	}
	return BreakerClosed
}

func (b *Breaker) notify(peer string, from, to BreakerState) {
	if b.cfg.OnStateChange != nil {
		b.cfg.OnStateChange(peer, from, to)
	}
}
