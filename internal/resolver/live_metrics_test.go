package resolver_test

import (
	"context"
	"math/rand/v2"
	"net"
	"testing"
	"time"

	"dnsddos/internal/dnswire"
	"dnsddos/internal/faultinject"
	"dnsddos/internal/leakcheck"
	"dnsddos/internal/nsset"
	"dnsddos/internal/obs"
	"dnsddos/internal/resolver"
)

// TestLiveResolverMetrics cross-checks the obs instrumentation against
// the outcomes the resolver itself reports: every try shows up in the
// tries counter and the try-RTT histogram, and the final-status
// counters agree with the returned statuses. The leak guard also pins
// that resolutions spawn no stray goroutines.
func TestLiveResolverMetrics(t *testing.T) {
	leakcheck.NoGoroutineLeaks(t)

	inj := faultinject.New(7)
	inj.SetProfile(faultinject.Profile{Drop: 0.5})
	addr := startAuth(t, nil)
	reg := obs.New()
	lr := resolver.NewLiveResolver(resolver.LiveConfig{
		PerTryTimeout: 150 * time.Millisecond,
		MaxTries:      6,
		Backoff:       5 * time.Millisecond,
		Wrap:          func(c net.Conn) net.Conn { return faultinject.WrapDatagram(c, inj) },
		Metrics:       reg,
	}, rand.New(rand.NewPCG(4, 0)))

	var wantTries, wantOK, wantTimeout int64
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		out := lr.Resolve(ctx, []string{addr}, "victim.example", dnswire.TypeNS)
		wantTries += int64(out.Tries)
		switch out.Status {
		case nsset.StatusOK:
			wantOK++
		case nsset.StatusTimeout:
			wantTimeout++
		}
	}

	snap := reg.Snapshot()
	if got := snap.Counters["resolver.live.tries"]; got != wantTries {
		t.Errorf("tries counter %d, resolver reported %d", got, wantTries)
	}
	if got := snap.Histograms["resolver.live.try_rtt"].Count; got != wantTries {
		t.Errorf("try-RTT histogram holds %d samples, want one per try (%d)", got, wantTries)
	}
	if got := snap.Counters["resolver.live.resolved_ok"]; got != wantOK {
		t.Errorf("resolved_ok %d, want %d", got, wantOK)
	}
	if got := snap.Counters["resolver.live.resolved_timeout"]; got != wantTimeout {
		t.Errorf("resolved_timeout %d, want %d", got, wantTimeout)
	}
	if got := snap.Histograms["resolver.live.rtt"].Count; got != wantOK {
		t.Errorf("resolution-RTT histogram holds %d samples, want one per success (%d)", got, wantOK)
	}
	// failed tries burn at least nothing and at most the per-try timeout
	// plus scheduling slack; the histogram max must be sane
	if max := snap.Histograms["resolver.live.try_rtt"].MaxNS; max <= 0 {
		t.Error("try-RTT histogram recorded no positive duration")
	}
	if wantOK == 0 {
		t.Error("seeded half-loss run resolved nothing; metric assertions were vacuous")
	}
}

// TestLiveResolverMetricsServFail: rcode failures land in the servfail
// counters, not the timeout ones.
func TestLiveResolverMetricsServFail(t *testing.T) {
	leakcheck.NoGoroutineLeaks(t)

	addr := startServFail(t)
	reg := obs.New()
	lr := resolver.NewLiveResolver(resolver.LiveConfig{
		PerTryTimeout: 200 * time.Millisecond,
		MaxTries:      2,
		Metrics:       reg,
	}, rand.New(rand.NewPCG(1, 0)))
	out := lr.Resolve(context.Background(), []string{addr}, "victim.example", dnswire.TypeNS)
	if out.Status != nsset.StatusServFail {
		t.Fatalf("status %v, want SERVFAIL", out.Status)
	}
	snap := reg.Snapshot()
	if snap.Counters["resolver.live.resolved_servfail"] != 1 {
		t.Errorf("resolved_servfail = %d, want 1", snap.Counters["resolver.live.resolved_servfail"])
	}
	if snap.Counters["resolver.live.try_servfails"] != 2 {
		t.Errorf("try_servfails = %d, want 2 (both tries answered SERVFAIL)", snap.Counters["resolver.live.try_servfails"])
	}
	if snap.Counters["resolver.live.resolved_timeout"] != 0 {
		t.Error("SERVFAIL resolution must not count as timeout")
	}
}
