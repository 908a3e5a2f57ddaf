package resilience

import (
	"context"
	"math/rand/v2"
	"testing"
	"time"
)

func testRNG(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
}

func TestTokenBucketAdmitsAtRate(t *testing.T) {
	// 4 tokens/sec of caller time, so a burst of 4: the first 4 items at
	// t0 pass, the 5th is denied; a quarter second later one token has
	// dripped back.
	b := NewTokenBucket(4, 4)
	t0 := time.Unix(1000, 0)
	denied := 0
	allow := func(ts time.Time) bool {
		ok := b.Allow(ts)
		if !ok {
			denied++
		}
		return ok
	}
	for i := 0; i < 4; i++ {
		if !allow(t0) {
			t.Fatalf("burst item %d denied", i)
		}
	}
	if allow(t0) {
		t.Fatal("5th item at t0 should be denied")
	}
	if !allow(t0.Add(250 * time.Millisecond)) {
		t.Fatal("item after 250ms refill should pass")
	}
	if allow(t0.Add(250 * time.Millisecond)) {
		t.Fatal("second item in same instant should be denied")
	}
	// an hour idle refills only up to the one-second burst
	t1 := t0.Add(time.Hour)
	for i := 0; i < 4; i++ {
		if !allow(t1) {
			t.Fatalf("refilled burst item %d denied", i)
		}
	}
	if allow(t1) {
		t.Fatal("idle time refilled past the burst")
	}
	if denied != 3 {
		t.Fatalf("denied %d items, want 3", denied)
	}
}

func TestTokenBucketBurstFloor(t *testing.T) {
	// half a token per second: the burst is floored at one token, so the
	// first item passes and the next is admitted two seconds later
	b := NewTokenBucket(0.5, 0.5)
	t0 := time.Unix(1000, 0)
	if !b.Allow(t0) {
		t.Fatal("first item denied: the burst floor of one token is gone")
	}
	if b.Allow(t0.Add(time.Second)) {
		t.Fatal("item after half a token's refill should be denied")
	}
	if !b.Allow(t0.Add(2 * time.Second)) {
		t.Fatal("item after a whole token's refill should pass")
	}
}

// TestTokenBucketBurstApartFromRate: the depth and the refill are two
// numbers. Two tokens a second with a burst of five admits five back to
// back, refills two a second, and an idle spell refills to five, not two.
func TestTokenBucketBurstApartFromRate(t *testing.T) {
	b := NewTokenBucket(2, 5)
	t0 := time.Unix(1000, 0)
	admitted := func(ts time.Time, n int) int {
		ok := 0
		for i := 0; i < n; i++ {
			if b.Allow(ts) {
				ok++
			}
		}
		return ok
	}
	if got := admitted(t0, 8); got != 5 {
		t.Fatalf("a full bucket admitted %d of 8 at once, want the burst of 5", got)
	}
	if got := admitted(t0.Add(time.Second), 8); got != 2 {
		t.Fatalf("one second after draining admitted %d, want the rate of 2", got)
	}
	if got := admitted(t0.Add(time.Hour), 8); got != 5 {
		t.Fatalf("an hour idle admitted %d, want the burst of 5", got)
	}
	if last := b.Last(); !last.Equal(t0.Add(time.Hour)) {
		t.Fatalf("Last = %v, want the newest stamp %v", last, t0.Add(time.Hour))
	}
	// a burst below one token is floored, whatever the rate
	if !NewTokenBucket(10, 0).Allow(t0) {
		t.Fatal("a zero burst denied the first item: the floor of one token is gone")
	}
}

func TestTokenBucketDeterministic(t *testing.T) {
	// same timestamp sequence -> same admit/deny decisions, every run
	stamps := make([]time.Time, 0, 200)
	rng := testRNG(7)
	ts := time.Unix(5000, 0)
	for i := 0; i < 200; i++ {
		ts = ts.Add(time.Duration(rng.Int64N(int64(400 * time.Millisecond))))
		stamps = append(stamps, ts)
	}
	run := func() []bool {
		b := NewTokenBucket(5, 5)
		out := make([]bool, len(stamps))
		for i, s := range stamps {
			out[i] = b.Allow(s)
		}
		return out
	}
	a, bb := run(), run()
	for i := range a {
		if a[i] != bb[i] {
			t.Fatalf("decision %d diverged: %v vs %v", i, a[i], bb[i])
		}
	}
}

func TestTokenBucketDisabledAndNil(t *testing.T) {
	var nilB *TokenBucket
	if !nilB.Allow(time.Now()) {
		t.Fatal("nil bucket must always allow")
	}
	b := NewTokenBucket(0, 0)
	for i := 0; i < 100; i++ {
		if !b.Allow(time.Unix(0, 0)) {
			t.Fatal("rate<=0 bucket must always allow")
		}
	}
}

func TestTokenBucketOutOfOrderTimestamps(t *testing.T) {
	b := NewTokenBucket(1, 1)
	t0 := time.Unix(100, 0)
	if !b.Allow(t0) {
		t.Fatal("first item should pass")
	}
	// a timestamp in the past must not mint tokens or move the clock back
	if b.Allow(t0.Add(-time.Hour)) {
		t.Fatal("out-of-order item should be denied with empty bucket")
	}
	if !b.Allow(t0.Add(time.Second)) {
		t.Fatal("refill relative to newest stamp should still work")
	}
}

func TestRetryBudgetBoundsAndDelays(t *testing.T) {
	base, cap := 10*time.Millisecond, 80*time.Millisecond
	b := NewRetryBudget(4, base, cap, testRNG(1))
	s := b.Session()

	d, ok := s.Next()
	if !ok || d != 0 {
		t.Fatalf("first attempt: got (%v,%v), want (0,true)", d, ok)
	}
	prev := base
	for attempt := 2; attempt <= 4; attempt++ {
		d, ok = s.Next()
		if !ok {
			t.Fatalf("attempt %d should be allowed", attempt)
		}
		if d < base || d > cap {
			t.Fatalf("attempt %d delay %v outside [base,cap]", attempt, d)
		}
		if hi := 3 * prev; hi < cap && d > hi {
			t.Fatalf("attempt %d delay %v above decorrelated window %v", attempt, d, hi)
		}
		prev = d
	}
	if _, ok = s.Next(); ok {
		t.Fatal("5th attempt should exhaust a 4-try budget")
	}
}

func TestRetryBudgetUnboundedAndZeroBase(t *testing.T) {
	b := NewRetryBudget(0, 0, 0, testRNG(2))
	s := b.Session()
	for i := 0; i < 50; i++ {
		d, ok := s.Next()
		if !ok {
			t.Fatalf("unbounded budget refused attempt %d", i+1)
		}
		if d != 0 {
			t.Fatalf("zero base should never sleep, got %v", d)
		}
	}
}

func TestRetryBudgetWaitHonoursContext(t *testing.T) {
	b := NewRetryBudget(3, time.Hour, time.Hour, testRNG(3))
	s := b.Session()
	if !s.Wait(context.Background()) {
		t.Fatal("first attempt should not sleep at all")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if s.Wait(ctx) {
		t.Fatal("cancelled context must stop the wait")
	}
}

func TestBreakerOpensAndProbes(t *testing.T) {
	var transitions []string
	b := NewBreaker(BreakerConfig{
		Threshold: 3,
		Cooldown:  time.Second,
		OnStateChange: func(peer string, from, to BreakerState) {
			transitions = append(transitions, peer+":"+from.String()+"->"+to.String())
		},
	})
	t0 := time.Unix(0, 0)

	for i := 0; i < 3; i++ {
		if !b.Allow("ns1", t0) {
			t.Fatalf("attempt %d should be allowed while closed", i)
		}
		b.Record("ns1", false, t0)
	}
	if b.State("ns1") != BreakerOpen {
		t.Fatalf("after threshold failures state = %v, want open", b.State("ns1"))
	}
	if b.Allow("ns1", t0.Add(500*time.Millisecond)) {
		t.Fatal("open circuit inside cooldown must refuse")
	}

	// cooldown elapsed: exactly one probe goes through
	probeAt := t0.Add(time.Second)
	if !b.Allow("ns1", probeAt) {
		t.Fatal("half-open circuit must admit one probe")
	}
	if b.State("ns1") != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", b.State("ns1"))
	}
	if b.Allow("ns1", probeAt) {
		t.Fatal("second concurrent probe must be refused")
	}

	// failed probe re-opens immediately; successful one closes
	b.Record("ns1", false, probeAt)
	if b.State("ns1") != BreakerOpen {
		t.Fatal("failed probe must re-open the circuit")
	}
	reprobe := probeAt.Add(time.Second)
	if !b.Allow("ns1", reprobe) {
		t.Fatal("second probe after another cooldown should pass")
	}
	b.Record("ns1", true, reprobe)
	if b.State("ns1") != BreakerClosed {
		t.Fatal("successful probe must close the circuit")
	}
	if !b.Allow("ns1", reprobe) {
		t.Fatal("closed circuit must admit freely")
	}

	want := []string{
		"ns1:closed->open",
		"ns1:open->half-open",
		"ns1:half-open->open",
		"ns1:open->half-open",
		"ns1:half-open->closed",
	}
	if len(transitions) != len(want) {
		t.Fatalf("transitions = %v, want %v", transitions, want)
	}
	for i := range want {
		if transitions[i] != want[i] {
			t.Fatalf("transition %d = %q, want %q", i, transitions[i], want[i])
		}
	}
}

func TestBreakerPerPeerIsolation(t *testing.T) {
	b := NewBreaker(BreakerConfig{Threshold: 2, Cooldown: time.Minute})
	t0 := time.Unix(0, 0)
	b.Record("bad", false, t0)
	b.Record("bad", false, t0)
	if b.Allow("bad", t0) {
		t.Fatal("bad peer should be open")
	}
	if !b.Allow("good", t0) {
		t.Fatal("good peer must be unaffected")
	}
	// success resets the consecutive-failure count
	b.Record("good", false, t0)
	b.Record("good", true, t0)
	b.Record("good", false, t0)
	if b.State("good") != BreakerClosed {
		t.Fatal("interleaved success must reset the failure streak")
	}
}

func TestBreakerDisabled(t *testing.T) {
	var nilB *Breaker
	if !nilB.Allow("x", time.Now()) {
		t.Fatal("nil breaker must always allow")
	}
	nilB.Record("x", false, time.Now()) // must not panic
	if nilB.State("x") != BreakerClosed {
		t.Fatal("nil breaker reports closed")
	}
	off := NewBreaker(BreakerConfig{Threshold: 0})
	for i := 0; i < 10; i++ {
		off.Record("x", false, time.Now())
	}
	if !off.Allow("x", time.Now()) {
		t.Fatal("zero-threshold breaker must stay disabled")
	}
}
