package resolver_test

import (
	"context"
	"math/rand/v2"
	"runtime"
	"testing"
	"time"

	"dnsddos/internal/authserver"
	"dnsddos/internal/dnswire"
	"dnsddos/internal/nsset"
	"dnsddos/internal/obs"
	"dnsddos/internal/resolver"
	"dnsddos/internal/scenario"
)

// loopbackResolver is the repo benchmark's serve_clean stack at a small
// scale: one authoritative server on loopback serving a generated zone,
// and the retrying resolver the benchmark configures. resolve runs n
// sequential resolutions over the zone's names and returns the
// process-wide allocations per resolution, client and server together.
func loopbackResolver(tb testing.TB) (resolve func(n int) float64) {
	tb.Helper()
	world := scenario.GenerateWorld(scenario.WorldConfig{Seed: 20, Domains: 300, GenericProviders: 20})
	srv := authserver.NewServer(authserver.FromDB(world.DB), nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { srv.Close() })
	lr := resolver.NewLiveResolver(resolver.LiveConfig{
		PerTryTimeout:    time.Second,
		Backoff:          2 * time.Millisecond,
		MaxBackoff:       20 * time.Millisecond,
		TCPFallback:      true,
		BreakerThreshold: 3,
		BreakerCooldown:  time.Second,
		Metrics:          obs.New(),
	}, rand.New(rand.NewPCG(20, 1)))
	addrs := []string{addr}
	ctx := context.Background()
	return func(n int) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			d := &world.DB.Domains[i%len(world.DB.Domains)]
			o := lr.Resolve(ctx, addrs, d.Name, dnswire.TypeNS)
			if o.Status != nsset.StatusOK || len(o.Msg.Answers) != len(d.NS) {
				tb.Fatalf("resolving %s: %+v", d.Name, o)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / float64(n)
	}
}

// TestLiveQueryAllocBudget bounds what one clean query allocates through
// the whole live stack: what outlives it (the decoded answer) and what
// the standard library's socket calls force (the dial, the server's peer
// address). It read about 110 while the codec built a string per label.
// The slack over the 20 it reads now covers the race detector, under
// which sync.Pool sheds some of what it is given.
func TestLiveQueryAllocBudget(t *testing.T) {
	resolve := loopbackResolver(t)
	resolve(200) // fill the pools, grow the scratch
	const budget = 26
	if got := resolve(2000); got > budget {
		t.Errorf("%.1f allocations per resolved query, budget %d", got, budget)
	}
}

// BenchmarkLiveResolveLoopback times one resolution through the live
// stack and reports its allocations, the server's included.
func BenchmarkLiveResolveLoopback(b *testing.B) {
	resolve := loopbackResolver(b)
	resolve(200)
	b.ResetTimer()
	b.ReportMetric(resolve(b.N), "allocs/query")
}
