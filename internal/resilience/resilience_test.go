// Package resilience holds no code of its own: it checks, from outside,
// the three defences the serving path layers under attack, each through
// the exported surface of the one package that runs it — the RRL token
// bucket through a running authserver.Server, retry pacing and the
// per-server circuit breaker through a resolver.LiveResolver. The
// packages' own tests drive the same algorithms on synthetic clocks;
// these drive them on the wall clock, over loopback sockets and
// scripted nameservers, with margins of tens of milliseconds.
package resilience

import (
	"context"
	"math/rand/v2"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"dnsddos/internal/authserver"
	"dnsddos/internal/dnswire"
	"dnsddos/internal/netx"
	"dnsddos/internal/nsset"
	"dnsddos/internal/obs"
	"dnsddos/internal/resolver"
)

// rrlServer starts an authoritative server for one delegation with RRL
// at rate and burst. Every limited response slips (Slip 1), so each
// query comes back either answered in full or truncated.
func rrlServer(t *testing.T, rate, burst float64) string {
	t.Helper()
	z := authserver.NewZone()
	z.AddNS("victim.example", "ns1.victim.example")
	z.AddA("ns1.victim.example", netx.MustParseAddr("192.0.2.1"))
	srv := authserver.NewServer(z, nil)
	srv.RRL = &authserver.RRLConfig{ResponsesPerSecond: rate, Burst: burst, Slip: 1}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr
}

// source is one client socket bound to a source address; sources in
// one /24 share a bucket, sources in two are judged apart.
type source struct {
	conn net.Conn
	id   uint16
}

func dialFrom(t *testing.T, src, addr string) *source {
	t.Helper()
	d := net.Dialer{LocalAddr: &net.UDPAddr{IP: net.ParseIP(src)}}
	conn, err := d.Dial("udp", addr)
	if err != nil {
		t.Fatalf("dial from %s: %v", src, err)
	}
	t.Cleanup(func() { conn.Close() })
	return &source{conn: conn}
}

// ask sends one query and reports whether it was answered in full
// (true) or slipped as a truncated answer (false).
func (s *source) ask() (bool, error) {
	s.id++
	wire, err := dnswire.Encode(dnswire.NewQuery(s.id, "victim.example", dnswire.TypeNS))
	if err != nil {
		return false, err
	}
	if _, err := s.conn.Write(wire); err != nil {
		return false, err
	}
	s.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 4096)
	for {
		n, err := s.conn.Read(buf)
		if err != nil {
			return false, err
		}
		m, err := dnswire.Decode(buf[:n])
		if err != nil || !m.Header.Response || m.Header.ID != s.id {
			continue
		}
		return !m.Header.Truncated, nil
	}
}

// sent fires n queries back to back and counts the full answers.
func (s *source) sent(t *testing.T, n int) int {
	t.Helper()
	full := 0
	for i := 0; i < n; i++ {
		ok, err := s.ask()
		if err != nil {
			t.Fatalf("query %d of %d: %v (slip 1 answers every query)", i+1, n, err)
		}
		if ok {
			full++
		}
	}
	return full
}

// TestTokenBucketAdmitsAtRate: four a second with a burst of four
// answers four queries at once and slips the fifth; a token is back
// after a quarter second; and an idle spell long enough to refill six
// refills only the burst of four.
func TestTokenBucketAdmitsAtRate(t *testing.T) {
	t.Parallel()
	s := dialFrom(t, "127.0.0.1", rrlServer(t, 4, 4))
	if got := s.sent(t, 5); got != 4 {
		t.Fatalf("a full bucket answered %d of 5 queries at once, want 4", got)
	}
	time.Sleep(300 * time.Millisecond)
	if got := s.sent(t, 2); got != 1 {
		t.Fatalf("300ms after draining answered %d of 2, want the one token back", got)
	}
	time.Sleep(1500 * time.Millisecond)
	if got := s.sent(t, 5); got != 4 {
		t.Fatalf("after 1.5s idle answered %d of 5, want the burst of 4", got)
	}
}

// TestTokenBucketBurstFloor: a bucket always holds one whole token, so
// a burst below one — set, or taken from a sub-1 rate — still answers a
// quiet source's first query, and the refill counts from that token.
func TestTokenBucketBurstFloor(t *testing.T) {
	t.Parallel()
	s := dialFrom(t, "127.0.0.1", rrlServer(t, 2, 0.5))
	if got := s.sent(t, 2); got != 1 {
		t.Fatalf("a half-token burst answered %d of 2, want the floor of 1", got)
	}
	time.Sleep(200 * time.Millisecond)
	if got := s.sent(t, 1); got != 0 {
		t.Fatal("a query after under half a token's refill was answered")
	}
	time.Sleep(400 * time.Millisecond)
	if got := s.sent(t, 1); got != 1 {
		t.Fatal("a query after a whole token's refill was not answered")
	}

	sub := dialFrom(t, "127.0.0.1", rrlServer(t, 0.5, 0))
	if got := sub.sent(t, 2); got != 1 {
		t.Fatalf("half a response a second answered %d of 2, want the floor of 1", got)
	}
}

// TestTokenBucketBurstApartFromRate: the depth and the refill are two
// numbers. Ten a second with a burst of fifteen answers fifteen at once,
// two after 220ms, and fifteen, not twenty, after two idle seconds.
func TestTokenBucketBurstApartFromRate(t *testing.T) {
	t.Parallel()
	s := dialFrom(t, "127.0.0.1", rrlServer(t, 10, 15))
	if got := s.sent(t, 20); got != 15 {
		t.Fatalf("a full bucket answered %d of 20 at once, want the burst of 15", got)
	}
	time.Sleep(220 * time.Millisecond)
	if got := s.sent(t, 5); got != 2 {
		t.Fatalf("220ms after draining answered %d of 5, want the rate's 2", got)
	}
	time.Sleep(2 * time.Second)
	if got := s.sent(t, 20); got != 15 {
		t.Fatalf("after 2s idle answered %d of 20, want the burst of 15", got)
	}
}

// TestTokenBucketDeterministic: two /24s fed the same seeded schedule,
// query by query, get the same verdicts, and those are the ones the
// bucket's arithmetic gives. Every pause is a whole number of token
// intervals, so the few milliseconds the wall clock adds never tip a
// verdict.
func TestTokenBucketDeterministic(t *testing.T) {
	t.Parallel()
	const rate, burst = 4, 4
	addr := rrlServer(t, rate, burst)
	a, b := dialFrom(t, "127.0.0.1", addr), dialFrom(t, "127.0.1.1", addr)
	rng := rand.New(rand.NewPCG(7, 7))
	tokens := float64(burst)
	for step := 0; step < 8; step++ {
		if pause := rng.IntN(3); pause > 0 {
			time.Sleep(time.Duration(pause) * time.Second / rate)
			tokens = min(tokens+float64(pause), burst)
		}
		for q := 1 + rng.IntN(6); q > 0; q-- {
			want := tokens >= 1
			if want {
				tokens--
			}
			gotA, err := a.ask()
			if err != nil {
				t.Fatal(err)
			}
			gotB, err := b.ask()
			if err != nil {
				t.Fatal(err)
			}
			if gotA != gotB || gotA != want {
				t.Fatalf("step %d: answered %v and %v from the two /24s, want %v", step, gotA, gotB, want)
			}
		}
	}
}

// TestTokenBucketOutOfOrderTimestamps: concurrent workers read the clock
// before they take the limiter's lock, so one /24's queries reach its
// bucket out of stamp order. An older stamp must neither mint tokens nor
// drain any: a flood spread over eight sockets gets exactly the burst
// plus what the rate refilled while it ran, and the bucket refills
// from its newest stamp afterwards.
func TestTokenBucketOutOfOrderTimestamps(t *testing.T) {
	t.Parallel()
	const rate, burst, senders, each = 10, 10, 8, 8
	addr := rrlServer(t, rate, burst)
	var wg sync.WaitGroup
	full := make([]int, senders)
	start := time.Now()
	for i := range senders {
		s := dialFrom(t, "127.0.0.1", addr)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range each {
				ok, err := s.ask()
				if err != nil {
					t.Errorf("sender %d: %v", i, err)
					return
				}
				if ok {
					full[i]++
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	total := 0
	for _, n := range full {
		total += n
	}
	if most := burst + int(rate*elapsed.Seconds()); total < burst || total > most {
		t.Fatalf("%d concurrent queries over %v got %d full answers, want %d to %d",
			senders*each, elapsed, total, burst, most)
	}
	time.Sleep(150 * time.Millisecond)
	if got := dialFrom(t, "127.0.0.1", addr).sent(t, 1); got != 1 {
		t.Fatal("no refill 150ms after the flood: the bucket's clock went back")
	}
}

// reply is what a scripted nameserver does with one query.
type reply int

const (
	answerOK reply = iota
	answerServFail
	timeOut
	hang // hold the query until the fleet's release, then time out
)

// fleet scripts nameservers through a LiveResolver's Wrap hook. The
// resolver dials a real UDP socket for every try, but the wrapped socket
// sends nothing: its Read answers the query as the address's script
// says at once, so a timeout costs no wall time. Every try is logged
// with the time it went out.
type fleet struct {
	mu      sync.Mutex
	script  map[string]reply
	tries   map[string][]time.Time
	release chan struct{}
}

func newFleet() *fleet {
	return &fleet{script: map[string]reply{}, tries: map[string][]time.Time{}, release: make(chan struct{})}
}

func (f *fleet) set(addr string, r reply) {
	f.mu.Lock()
	f.script[addr] = r
	f.mu.Unlock()
}

func (f *fleet) sent(addr string) []time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]time.Time(nil), f.tries[addr]...)
}

func (f *fleet) wrap(c net.Conn) net.Conn { return &scripted{Conn: c, f: f} }

type scripted struct {
	net.Conn
	f     *fleet
	reply reply
	query []byte
}

func (c *scripted) Write(b []byte) (int, error) {
	addr := c.RemoteAddr().String()
	c.f.mu.Lock()
	c.reply = c.f.script[addr]
	c.f.tries[addr] = append(c.f.tries[addr], time.Now())
	c.f.mu.Unlock()
	c.query = append(c.query[:0], b...)
	return len(b), nil
}

func (c *scripted) Read(b []byte) (int, error) {
	rcode := dnswire.RCodeNoError
	switch c.reply {
	case hang:
		select {
		case <-c.f.release:
		case <-time.After(10 * time.Second):
		}
		return 0, os.ErrDeadlineExceeded
	case timeOut:
		return 0, os.ErrDeadlineExceeded
	case answerServFail:
		rcode = dnswire.RCodeServFail
	}
	n := copy(b, c.query)
	b[2] |= 0x80 // QR: the query comes back as its own empty answer
	b[3] = byte(rcode)
	return n, nil
}

// live builds a seeded LiveResolver over the fleet with the metrics the
// breaker checks read.
func live(f *fleet, cfg resolver.LiveConfig) (*resolver.LiveResolver, *obs.Registry) {
	reg := obs.New()
	cfg.Wrap, cfg.Metrics = f.wrap, reg
	return resolver.NewLiveResolver(cfg, rand.New(rand.NewPCG(1, 1))), reg
}

func resolve(ctx context.Context, lr *resolver.LiveResolver, addrs ...string) resolver.LiveOutcome {
	return lr.Resolve(ctx, addrs, "victim.example", dnswire.TypeNS)
}

func counter(reg *obs.Registry, name string) int64 {
	return reg.Snapshot().Counters["resolver.live."+name]
}

// admitted resolves at addr alone with one try and reports whether its
// circuit admitted the try: when every server refuses, the scheduled
// one is tried anyway, but the refusal counts a breaker_skips.
func admitted(t *testing.T, lr *resolver.LiveResolver, reg *obs.Registry, addr string) resolver.LiveOutcome {
	t.Helper()
	before := counter(reg, "breaker_skips")
	out := resolve(context.Background(), lr, addr)
	if skipped := counter(reg, "breaker_skips") - before; skipped != 0 {
		t.Fatalf("%s's circuit refused a try it should admit", addr)
	}
	return out
}

// refused resolves over {bad, good} eight times with one try each and
// checks that bad's circuit refused every time: no try reaches bad, and
// the rotations that put bad first skip it.
func refused(t *testing.T, lr *resolver.LiveResolver, reg *obs.Registry, f *fleet, bad, good string) {
	t.Helper()
	tried, skips := len(f.sent(bad)), counter(reg, "breaker_skips")
	for i := 0; i < 8; i++ {
		if out := resolve(context.Background(), lr, bad, good); out.Server != good {
			t.Fatalf("resolution %d went to %s; %s's circuit should refuse", i, out.Server, bad)
		}
	}
	if len(f.sent(bad)) != tried {
		t.Fatalf("%s was tried while its circuit should refuse", bad)
	}
	if counter(reg, "breaker_skips") == skips {
		t.Fatalf("no rotation put %s first; the refusal went unchecked", bad)
	}
}

// TestBreakerOpensAndProbes walks one server's circuit through its
// states on the wall clock: three timeouts open it, it refuses inside
// the cooldown, then admits exactly one probe and refuses a second one
// while the first is out; the failed probe re-opens it and restarts the
// cooldown, and a successful probe closes it. Each entry into open
// counts one breaker_opens.
func TestBreakerOpensAndProbes(t *testing.T) {
	t.Parallel()
	const cooldown = 500 * time.Millisecond
	bad, good := "127.0.0.1:5301", "127.0.0.1:5302"
	f := newFleet()
	f.set(bad, timeOut)
	f.set(good, answerOK)
	lr, reg := live(f, resolver.LiveConfig{MaxTries: 1, BreakerThreshold: 3, BreakerCooldown: cooldown})

	for i := 0; i < 3; i++ {
		if out := admitted(t, lr, reg, bad); out.Status != nsset.StatusTimeout {
			t.Fatalf("try %d: status %v, want TIMEOUT", i, out.Status)
		}
	}
	if got := counter(reg, "breaker_opens"); got != 1 {
		t.Fatalf("breaker_opens = %d after 3 timeouts, want 1", got)
	}
	refused(t, lr, reg, f, bad, good)

	time.Sleep(cooldown + 50*time.Millisecond)
	f.set(bad, hang)
	probe := make(chan resolver.LiveOutcome)
	skips := counter(reg, "breaker_skips")
	go func() { probe <- resolve(context.Background(), lr, bad) }()
	for deadline := time.Now().Add(5 * time.Second); len(f.sent(bad)) < 4; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the probe never reached the server")
		}
	}
	if counter(reg, "breaker_skips") != skips {
		t.Fatal("the cooldown passed but the circuit refused the probe")
	}
	refused(t, lr, reg, f, bad, good) // a second probe while the first is out
	close(f.release)
	if out := <-probe; out.Status != nsset.StatusTimeout || out.Server != bad {
		t.Fatalf("probe: %v from %s, want TIMEOUT from %s", out.Status, out.Server, bad)
	}
	if got := counter(reg, "breaker_opens"); got != 2 {
		t.Fatalf("breaker_opens = %d after a failed probe, want 2", got)
	}
	refused(t, lr, reg, f, bad, good) // the failed probe restarted the cooldown

	time.Sleep(cooldown + 50*time.Millisecond)
	f.set(bad, answerOK)
	for i := 0; i < 3; i++ { // the probe, then a closed circuit's free tries
		if out := admitted(t, lr, reg, bad); out.Status != nsset.StatusOK {
			t.Fatalf("try %d after the cooldown: status %v, want OK", i, out.Status)
		}
	}
	if got := counter(reg, "breaker_opens"); got != 2 {
		t.Fatalf("breaker_opens = %d, want 2 (closed→open, half-open→open)", got)
	}
}

// TestBreakerPerPeerIsolation: one server's open circuit leaves the
// others' alone, and a success resets a server's failure streak.
func TestBreakerPerPeerIsolation(t *testing.T) {
	t.Parallel()
	bad, good, flaky := "127.0.0.1:5301", "127.0.0.1:5302", "127.0.0.1:5303"
	f := newFleet()
	f.set(bad, timeOut)
	f.set(good, answerOK)
	lr, reg := live(f, resolver.LiveConfig{MaxTries: 1, BreakerThreshold: 2, BreakerCooldown: time.Minute})

	admitted(t, lr, reg, bad)
	admitted(t, lr, reg, bad)
	refused(t, lr, reg, f, bad, good)
	if out := admitted(t, lr, reg, good); out.Status != nsset.StatusOK {
		t.Fatalf("the good server answered %v, want OK", out.Status)
	}

	for _, r := range []reply{timeOut, answerOK, timeOut} {
		f.set(flaky, r)
		admitted(t, lr, reg, flaky)
	}
	if got := counter(reg, "breaker_opens"); got != 1 {
		t.Fatalf("breaker_opens = %d: a success in between must reset the streak", got)
	}
}

// TestBreakerDisabled: a zero BreakerThreshold never refuses a server,
// however often it fails.
func TestBreakerDisabled(t *testing.T) {
	t.Parallel()
	bad, good := "127.0.0.1:5301", "127.0.0.1:5302"
	f := newFleet()
	f.set(bad, timeOut)
	f.set(good, answerOK)
	lr, reg := live(f, resolver.LiveConfig{MaxTries: 1})
	for i := 0; i < 10; i++ {
		admitted(t, lr, reg, bad)
	}
	for i := 0; i < 16; i++ {
		resolve(context.Background(), lr, bad, good)
	}
	if len(f.sent(bad)) == 10 {
		t.Fatal("no rotation reached the failing server: it was refused")
	}
	if opens, skips := counter(reg, "breaker_opens"), counter(reg, "breaker_skips"); opens != 0 || skips != 0 {
		t.Fatalf("breaker_opens = %d, breaker_skips = %d without a breaker", opens, skips)
	}
}

// TestRetryBudgetBoundsAndDelays: against a server that SERVFAILs at
// once, a resolution makes exactly MaxTries tries, and the pause before
// each retry is at least Backoff, at most 3·Backoff before the first
// retry and three times the pause before it after that, and never above
// MaxBackoff. The upper bounds allow slack for scheduling; a timer never
// fires early, so the lower bound has none.
func TestRetryBudgetBoundsAndDelays(t *testing.T) {
	t.Parallel()
	const base, maxBackoff, slack = 40 * time.Millisecond, 150 * time.Millisecond, 100 * time.Millisecond
	ns := "127.0.0.1:5301"
	f := newFleet()
	f.set(ns, answerServFail)
	lr, _ := live(f, resolver.LiveConfig{MaxTries: 4, Backoff: base, MaxBackoff: maxBackoff})
	for run := 0; run < 2; run++ {
		before := len(f.sent(ns))
		out := resolve(context.Background(), lr, ns)
		if out.Status != nsset.StatusServFail || out.Tries != 4 {
			t.Fatalf("run %d: %v after %d tries, want SERVFAIL after 4", run, out.Status, out.Tries)
		}
		sent := f.sent(ns)[before:]
		if len(sent) != 4 {
			t.Fatalf("run %d: %d tries reached the server, want 4", run, len(sent))
		}
		window := 3 * base
		for k := 1; k < len(sent); k++ {
			gap := sent[k].Sub(sent[k-1])
			if gap < base || gap > min(window, maxBackoff)+slack {
				t.Fatalf("run %d: pause before try %d was %v, want %v to %v", run, k+1, gap, base, min(window, maxBackoff))
			}
			window = 3 * gap
		}
	}
}

// TestRetryBudgetUnboundedAndZeroBase: a large budget is spent in full,
// and a zero Backoff sends every retry at once — fifty tries take no
// time even with an hour's MaxBackoff.
func TestRetryBudgetUnboundedAndZeroBase(t *testing.T) {
	t.Parallel()
	ns := "127.0.0.1:5301"
	f := newFleet()
	f.set(ns, answerServFail)
	lr, _ := live(f, resolver.LiveConfig{MaxTries: 50, MaxBackoff: time.Hour})
	start := time.Now()
	out := resolve(context.Background(), lr, ns)
	if out.Tries != 50 || len(f.sent(ns)) != 50 {
		t.Fatalf("%d tries, %d reached the server; want 50", out.Tries, len(f.sent(ns)))
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("fifty tries without backoff took %v", el)
	}
}

// TestRetryBudgetWaitHonoursContext: the first try goes out at once
// whatever the Backoff; a context cancelled during an hour's backoff
// ends the resolution promptly after its one try; and a context done
// before the resolution starts sends nothing.
func TestRetryBudgetWaitHonoursContext(t *testing.T) {
	t.Parallel()
	ns := "127.0.0.1:5301"
	f := newFleet()
	f.set(ns, answerServFail)
	lr, _ := live(f, resolver.LiveConfig{MaxTries: 3, Backoff: time.Hour, MaxBackoff: time.Hour})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(50*time.Millisecond, cancel)
	start := time.Now()
	out := resolve(ctx, lr, ns)
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("a cancelled hour of backoff returned after %v", el)
	}
	if out.Tries != 1 || out.Status != nsset.StatusServFail {
		t.Fatalf("cancelled during backoff: %d tries, %v; want 1 try, SERVFAIL", out.Tries, out.Status)
	}
	if sent := f.sent(ns); len(sent) != 1 || sent[0].Sub(start) > time.Second {
		t.Fatalf("the first try was not sent at once: %v", sent)
	}

	if out := resolve(ctx, lr, ns); out.Tries != 0 || len(f.sent(ns)) != 1 {
		t.Fatalf("a done context still sent %d tries", out.Tries)
	}
}
