package resilience

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"math/rand/v2"
	"sync"
	"time"
)

// retry.go: the shared retry policy. A RetryBudget bounds how many
// attempts an operation gets and paces the gaps between them with
// decorrelated jitter (Exponential Backoff And Jitter, the "decorrelated"
// variant): each delay is drawn uniformly from [base, 3*previous],
// capped. Compared with the plain jittered-exponential the resolver used
// before, decorrelated jitter desynchronizes retry
// storms harder — two clients that failed at the same instant walk
// different delay sequences immediately, not just within one step's
// jitter window.

// RetryBudget is an immutable retry policy: attempts bound plus the
// backoff window. Safe for concurrent use; each retried operation runs
// its own Session.
type RetryBudget struct {
	maxAttempts int // total tries including the first; <= 0 means unbounded
	base, cap   time.Duration

	mu  sync.Mutex
	rng *rand.Rand
}

// NewRetryBudget builds a policy allowing maxAttempts total tries
// (<= 0 = unbounded) spaced by decorrelated-jitter delays in
// [base, cap]. base <= 0 disables sleeping — retries go out immediately,
// the way unbound fires its first burst. cap <= 0 defaults to
// DefaultCap. rng seeds the jitter; nil seeds one from crypto/rand
// (tests pass a seeded generator, per the repo convention).
func NewRetryBudget(maxAttempts int, base, cap time.Duration, rng *rand.Rand) *RetryBudget {
	if cap <= 0 {
		cap = DefaultCap
	}
	if rng == nil {
		var seed [16]byte
		crand.Read(seed[:])
		rng = rand.New(rand.NewPCG(
			binary.LittleEndian.Uint64(seed[:8]),
			binary.LittleEndian.Uint64(seed[8:])))
	}
	return &RetryBudget{maxAttempts: maxAttempts, base: base, cap: cap, rng: rng}
}

// jitter draws uniformly from [lo, hi], guarding degenerate windows.
func (b *RetryBudget) jitter(lo, hi time.Duration) time.Duration {
	if hi <= lo {
		return lo
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return lo + time.Duration(b.rng.Int64N(int64(hi-lo)+1))
}

// Session is one operation's retry state: its attempt counter and the
// previous delay the decorrelated walk grows from. Not safe for
// concurrent use.
type Session struct {
	b       *RetryBudget
	prev    time.Duration
	attempt int
}

// Session starts a fresh retry sequence under the budget.
func (b *RetryBudget) Session() *Session { return &Session{b: b} }

// Next charges one attempt against the budget. It returns the delay to
// wait before that attempt (zero for the first) and whether the budget
// still allows it; false means the operation is out of tries.
func (s *Session) Next() (time.Duration, bool) {
	s.attempt++
	if s.b.maxAttempts > 0 && s.attempt > s.b.maxAttempts {
		return 0, false
	}
	if s.attempt == 1 || s.b.base <= 0 {
		// the first try is free, and a zero base disables pacing
		s.prev = s.b.base
		return 0, true
	}
	lo := s.b.base
	hi := 3 * s.prev
	if hi < lo {
		hi = lo
	}
	d := s.b.jitter(lo, hi)
	if d > s.b.cap {
		d = s.b.cap
	}
	s.prev = d
	return d, true
}

// Wait is Next plus the sleep: it returns false when the budget is
// exhausted or ctx was cancelled while waiting, true when the caller
// should attempt again.
func (s *Session) Wait(ctx context.Context) bool {
	d, ok := s.Next()
	if !ok {
		return false
	}
	if ctx != nil && ctx.Err() != nil {
		return false
	}
	if d <= 0 {
		return true
	}
	if ctx == nil {
		time.Sleep(d)
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
