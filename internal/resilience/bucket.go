package resilience

import "time"

// bucket.go: token-bucket admission control driven by *caller time*.
// The bucket never reads the wall clock — every Allow carries the
// timestamp of the work item it is judging (a captured packet's capture
// time, a replayed trace's stream time), so a seeded replay makes
// identical admit/shed decisions on every run, at any replay speed.
// That is what lets the stream's admission tests assert deterministic
// refusal counts.

// TokenBucket is a deterministic token bucket: rate tokens per second of
// caller time, holding at most burst of them. Not safe for concurrent
// use: the single-threaded stream pipeline owns one, and the
// authoritative server's RRL keeps one per source prefix under its lock.
type TokenBucket struct {
	rate    float64 // tokens per second of caller time
	burst   float64
	tokens  float64
	last    time.Time
	started bool
}

// NewTokenBucket builds a full bucket admitting rate items per second of
// caller time, at most burst of them back to back. A rate <= 0 disables
// limiting (Allow always succeeds). The burst is floored at one token — a
// bucket that can never hold a whole token would deny everything forever,
// which is a misconfiguration, not a rate limit.
func NewTokenBucket(rate, burst float64) *TokenBucket {
	if rate > 0 && burst < 1 {
		burst = 1
	}
	return &TokenBucket{rate: rate, burst: burst, tokens: burst}
}

// Allow judges one item stamped now: refill by the caller-time elapsed
// since the previous item, then take one token. Out-of-order timestamps
// refill nothing but never drain the clock backwards, so bounded
// arrival jitter costs at most its own tokens.
func (b *TokenBucket) Allow(now time.Time) bool {
	if b == nil || b.rate <= 0 {
		return true
	}
	if !b.started {
		b.started, b.last = true, now
	}
	if d := now.Sub(b.last); d > 0 {
		b.tokens += b.rate * d.Seconds()
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Last returns the newest timestamp the bucket has judged (the zero time
// before the first Allow).
func (b *TokenBucket) Last() time.Time { return b.last }
