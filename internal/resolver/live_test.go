package resolver_test

import (
	"context"
	"math/rand/v2"
	"net"
	"testing"
	"time"

	"dnsddos/internal/authserver"
	"dnsddos/internal/dnswire"
	"dnsddos/internal/faultinject"
	"dnsddos/internal/netx"
	"dnsddos/internal/nsset"
	"dnsddos/internal/obs"
	"dnsddos/internal/resolver"
)

// startAuth brings up an authoritative server for victim.example, with
// an optional fault injector on its listener.
func startAuth(t *testing.T, inj *faultinject.Injector) string {
	t.Helper()
	zone := authserver.NewZone()
	zone.AddNS("victim.example", "ns1.victim.example")
	zone.AddA("ns1.victim.example", netx.MustParseAddr("192.0.2.1"))
	srv := authserver.NewServer(zone, nil)
	if inj != nil {
		srv.WrapUDP = func(pc authserver.UDPConn) authserver.UDPConn {
			return faultinject.WrapPacketConn(pc, inj)
		}
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr
}

// startServFail runs a minimal UDP responder that answers every query
// with SERVFAIL.
func startServFail(t *testing.T) string {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pc.Close() })
	go func() {
		buf := make([]byte, 4096)
		for {
			n, peer, err := pc.ReadFrom(buf)
			if err != nil {
				return
			}
			if n < 12 || buf[2]&0x80 != 0 {
				continue
			}
			buf[2] |= 0x80
			buf[3] = byte(dnswire.RCodeServFail)
			pc.WriteTo(buf[:n], peer)
		}
	}()
	return pc.LocalAddr().String()
}

// TestLiveResolverRotationSurvivesPartialOutage is the acceptance
// scenario: a 3-NS set where two servers black-hole everything still
// resolves — retries rotate onto the healthy server, burning per-try
// timeouts that show up as inflated RTT — while a 1-NS set pointing at a
// dead server only times out.
func TestLiveResolverRotationSurvivesPartialOutage(t *testing.T) {
	dead := faultinject.New(11)
	dead.SetProfile(faultinject.Profile{Drop: 1})
	deadA := startAuth(t, dead)
	deadB := startAuth(t, dead)
	healthy := startAuth(t, nil)

	perTry := 200 * time.Millisecond
	lr := resolver.NewLiveResolver(resolver.LiveConfig{
		PerTryTimeout: perTry,
		MaxTries:      3,
		Backoff:       5 * time.Millisecond,
	}, rand.New(rand.NewPCG(3, 0)))

	addrs := []string{deadA, deadB, healthy}
	ctx := context.Background()
	sawRetry := false
	for i := 0; i < 5; i++ {
		out := lr.Resolve(ctx, addrs, "victim.example", dnswire.TypeNS)
		if out.Status != nsset.StatusOK {
			t.Fatalf("run %d: 3-NS set must resolve, got %v after %d tries", i, out.Status, out.Tries)
		}
		if out.Server != healthy {
			t.Errorf("run %d: answer attributed to %s, want the healthy server %s", i, out.Server, healthy)
		}
		if out.Tries > 1 {
			sawRetry = true
			if out.RTT < perTry {
				t.Errorf("run %d: %d tries but RTT %v < one per-try timeout %v — retries must inflate RTT",
					i, out.Tries, out.RTT, perTry)
			}
		}
		if out.Msg == nil || len(out.Msg.Answers) == 0 {
			t.Errorf("run %d: missing answer message", i)
		}
	}
	if !sawRetry {
		t.Error("seeded shuffles never picked a dead server first; rotation untested")
	}

	// the same resolver against only a dead server: timeout, all tries
	out := lr.Resolve(ctx, []string{deadA}, "victim.example", dnswire.TypeNS)
	if out.Status != nsset.StatusTimeout {
		t.Fatalf("1-NS dead set: status %v, want TIMEOUT", out.Status)
	}
	if out.Tries != 3 {
		t.Errorf("1-NS dead set: %d tries, want MaxTries=3 (rotation must wrap a short list)", out.Tries)
	}
	if out.RTT != 0 {
		t.Errorf("failed resolution must not report an RTT, got %v", out.RTT)
	}
}

// TestLiveResolverClientSideLoss drives the resolver through a lossy
// client socket: 100% loss times out every try; 50% loss (seeded) still
// resolves within the retry budget, exercising backoff and rotation.
func TestLiveResolverClientSideLoss(t *testing.T) {
	addr := startAuth(t, nil)
	ctx := context.Background()

	t.Run("total-loss", func(t *testing.T) {
		inj := faultinject.New(21)
		inj.SetProfile(faultinject.Profile{Drop: 1})
		lr := resolver.NewLiveResolver(resolver.LiveConfig{
			PerTryTimeout: 100 * time.Millisecond,
			MaxTries:      4,
			Wrap:          func(c net.Conn) net.Conn { return faultinject.WrapDatagram(c, inj) },
		}, rand.New(rand.NewPCG(1, 0)))
		out := lr.Resolve(ctx, []string{addr}, "victim.example", dnswire.TypeNS)
		if out.Status != nsset.StatusTimeout || out.Tries != 4 {
			t.Fatalf("100%% loss: got %v after %d tries, want TIMEOUT after 4", out.Status, out.Tries)
		}
	})

	t.Run("half-loss", func(t *testing.T) {
		inj := faultinject.New(42)
		inj.SetProfile(faultinject.Profile{Drop: 0.5})
		lr := resolver.NewLiveResolver(resolver.LiveConfig{
			PerTryTimeout: 150 * time.Millisecond,
			MaxTries:      8,
			Backoff:       5 * time.Millisecond,
			Wrap:          func(c net.Conn) net.Conn { return faultinject.WrapDatagram(c, inj) },
		}, rand.New(rand.NewPCG(2, 0)))
		okCount, retries := 0, 0
		for i := 0; i < 6; i++ {
			out := lr.Resolve(ctx, []string{addr}, "victim.example", dnswire.TypeNS)
			if out.Status == nsset.StatusOK {
				okCount++
				retries += out.Tries - 1
			}
		}
		if okCount != 6 {
			t.Errorf("50%% loss with 8 tries: %d/6 resolved; the retry budget should absorb this seed's losses", okCount)
		}
		if retries == 0 {
			t.Error("50%% loss never forced a retry; loss path untested")
		}
	})
}

// TestLiveResolverServFail checks rcode classification: a set whose only
// server answers SERVFAIL classifies the whole resolution as SERVFAIL
// (not timeout), mirroring the simulated resolver.
func TestLiveResolverServFail(t *testing.T) {
	addr := startServFail(t)
	lr := resolver.NewLiveResolver(resolver.LiveConfig{
		PerTryTimeout: 200 * time.Millisecond,
		MaxTries:      2,
	}, rand.New(rand.NewPCG(1, 0)))
	out := lr.Resolve(context.Background(), []string{addr}, "victim.example", dnswire.TypeNS)
	if out.Status != nsset.StatusServFail {
		t.Fatalf("status %v, want SERVFAIL", out.Status)
	}
	if out.Tries != 2 {
		t.Errorf("SERVFAIL must be retried: %d tries, want 2", out.Tries)
	}
}

// TestLiveResolverMixedSet: one SERVFAIL server and one healthy server —
// rotation must find the healthy one and return OK.
func TestLiveResolverMixedSet(t *testing.T) {
	bad := startServFail(t)
	good := startAuth(t, nil)
	lr := resolver.NewLiveResolver(resolver.LiveConfig{
		PerTryTimeout: 200 * time.Millisecond,
		MaxTries:      2,
	}, rand.New(rand.NewPCG(9, 0)))
	for i := 0; i < 4; i++ {
		out := lr.Resolve(context.Background(), []string{bad, good}, "victim.example", dnswire.TypeNS)
		if out.Status != nsset.StatusOK {
			t.Fatalf("run %d: mixed set must resolve, got %v", i, out.Status)
		}
	}
}

// TestLiveResolverFeedsAggregator closes the loop the tentpole is for:
// live outcomes stream into the same nsset.Aggregator the simulated
// sweeps use, and Eq. 1 comes out the other side.
func TestLiveResolverFeedsAggregator(t *testing.T) {
	addr := startAuth(t, nil)
	lr := resolver.NewLiveResolver(resolver.LiveConfig{
		PerTryTimeout: 500 * time.Millisecond,
		MaxTries:      2,
	}, rand.New(rand.NewPCG(1, 0)))
	agg := nsset.NewAggregator()
	key := nsset.KeyOf([]netx.Addr{netx.MustParseAddr("192.0.2.1")})
	base := time.Date(2022, 3, 8, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 5; i++ {
		out := lr.Resolve(context.Background(), []string{addr}, "victim.example", dnswire.TypeNS)
		agg.Add(key, base.Add(time.Duration(i)*time.Minute), out.Status, out.RTT)
	}
	w := agg.Windows(key)
	if len(w) == 0 {
		t.Fatal("no windows aggregated from live outcomes")
	}
	var ok int
	for _, m := range w {
		ok += m.OKCount
	}
	if ok != 5 {
		t.Errorf("aggregated %d OK samples, want 5", ok)
	}
	if w[0].AvgRTT() <= 0 {
		t.Error("live RTTs must aggregate to a positive window average")
	}
}

// TestLiveResolverContextCancel: a cancelled context stops the retry
// loop promptly.
func TestLiveResolverContextCancel(t *testing.T) {
	dead := faultinject.New(5)
	dead.SetProfile(faultinject.Profile{Drop: 1})
	addr := startAuth(t, dead)
	lr := resolver.NewLiveResolver(resolver.LiveConfig{
		PerTryTimeout: 5 * time.Second,
		MaxTries:      10,
	}, rand.New(rand.NewPCG(1, 0)))
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	out := lr.Resolve(ctx, []string{addr}, "victim.example", dnswire.TypeNS)
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("cancelled resolution took %v", d)
	}
	if out.Status == nsset.StatusOK {
		t.Fatal("cancelled resolution cannot succeed")
	}
}

// TestLiveResolverBackoffWindow: the delay before the first retry is
// drawn from [B, 3B] and each later one from [B, min(3·prev, Max)]; a
// zero Backoff never sleeps; and a context cancelled during an hour's
// backoff ends the resolution at once.
func TestLiveResolverBackoffWindow(t *testing.T) {
	const base, maxBackoff = 10 * time.Millisecond, 80 * time.Millisecond
	lr := resolver.NewLiveResolver(resolver.LiveConfig{Backoff: base, MaxBackoff: maxBackoff},
		rand.New(rand.NewPCG(1, 0)))
	spread := false
	for run := 0; run < 64; run++ {
		d := resolver.LiveBackoff(lr, 0)
		if d < base || d > 3*base {
			t.Fatalf("first delay %v outside [%v, %v]", d, base, 3*base)
		}
		spread = spread || d > 2*base
		for k := 0; k < 4; k++ {
			prev := d
			d = resolver.LiveBackoff(lr, prev)
			if d < base || d > min(3*prev, maxBackoff) {
				t.Fatalf("delay %v after %v outside [%v, %v]", d, prev, base, min(3*prev, maxBackoff))
			}
		}
	}
	if !spread {
		t.Fatal("64 first delays all stayed under 2B: the first window must reach 3B")
	}

	addr := startServFail(t)
	still := resolver.NewLiveResolver(resolver.LiveConfig{
		PerTryTimeout: time.Second,
		MaxTries:      4,
		MaxBackoff:    time.Hour,
	}, rand.New(rand.NewPCG(1, 0)))
	var d time.Duration
	for k := 0; k < 8; k++ {
		if d = resolver.LiveBackoff(still, d); d != 0 {
			t.Fatalf("a zero Backoff drew a delay of %v", d)
		}
	}
	start := time.Now()
	if out := still.Resolve(context.Background(), []string{addr}, "victim.example", dnswire.TypeNS); out.Tries != 4 {
		t.Fatalf("zero Backoff: %d tries, want 4", out.Tries)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("four SERVFAIL tries without backoff took %v", el)
	}

	paced := resolver.NewLiveResolver(resolver.LiveConfig{
		PerTryTimeout: time.Second,
		MaxTries:      3,
		Backoff:       time.Hour,
		MaxBackoff:    time.Hour,
	}, rand.New(rand.NewPCG(1, 0)))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	time.AfterFunc(100*time.Millisecond, cancel)
	start = time.Now()
	out := paced.Resolve(ctx, []string{addr}, "victim.example", dnswire.TypeNS)
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("a cancelled hour of backoff returned after %v", el)
	}
	if out.Tries != 1 || out.Status != nsset.StatusServFail {
		t.Fatalf("cancelled during backoff: %d tries, %v; want 1 try, SERVFAIL", out.Tries, out.Status)
	}
}

// TestLiveResolverEmptySet mirrors the simulated resolver: no servers is
// an immediate SERVFAIL.
func TestLiveResolverEmptySet(t *testing.T) {
	lr := resolver.NewLiveResolver(resolver.LiveConfig{}, rand.New(rand.NewPCG(1, 0)))
	out := lr.Resolve(context.Background(), nil, "victim.example", dnswire.TypeNS)
	if out.Status != nsset.StatusServFail || out.Tries != 0 {
		t.Fatalf("empty set: %+v, want immediate SERVFAIL", out)
	}
}

// TestLiveResolverBreakerIsolatesDeadServer: with circuit breaking
// enabled, a server that keeps failing is opened and skipped in
// rotation — resolutions keep landing on the healthy server without
// burning tries on the dead one.
func TestLiveResolverBreakerIsolatesDeadServer(t *testing.T) {
	healthy := startAuth(t, nil)
	// a freshly closed port: queries fail fast with a refused error
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := pc.LocalAddr().String()
	pc.Close()

	reg := obs.New()
	r := resolver.NewLiveResolver(resolver.LiveConfig{
		PerTryTimeout:    300 * time.Millisecond,
		MaxTries:         4,
		BreakerThreshold: 2,
		BreakerCooldown:  time.Minute, // longer than the test: no reprobe
		Metrics:          reg,
	}, rand.New(rand.NewPCG(7, 7)))

	for i := 0; i < 12; i++ {
		o := r.Resolve(context.Background(), []string{healthy, dead},
			"victim.example", dnswire.TypeNS)
		if o.Status != nsset.StatusOK {
			t.Fatalf("resolve %d: status %s after %d tries", i, o.Status, o.Tries)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters["resolver.live.breaker_opens"]; got != 1 {
		t.Errorf("breaker_opens = %d, want 1 (one dead server)", got)
	}
	if got := snap.Counters["resolver.live.breaker_skips"]; got == 0 {
		t.Error("breaker never skipped the open server")
	}
}
