// live_test.go pins the degraded-mode shape the sweep exists to show:
// one seconds-scale live run of every mode over loopback sockets, then
// one table row per mode asserting which shed, rate-limit, retry and
// breaker counters moved — the server side of each row and the
// resolver's reaction to it — not how long anything took.
package e2ebench

import (
	"context"
	"testing"
	"time"

	"dnsddos/internal/leakcheck"
)

// liveSmokeConfig is a seconds-scale live configuration: small enough
// for `go test`, big enough that every mode issues real traffic.
func liveSmokeConfig(modes ...string) Config {
	return Config{
		Seed:          7,
		Modes:         modes,
		Domains:       80,
		Names:         8,
		Servers:       3,
		Rounds:        1,
		Warmup:        0,
		Queries:       120,
		Concurrency:   8,
		Timeout:       800 * time.Millisecond,
		PerTryTimeout: 40 * time.Millisecond,
	}
}

// the counters a defense or a fault moves; a healthy fleet moves none
var degradedCounters = []string{
	"authserver.udp_dropped",
	"authserver.udp_shed_servfail",
	"authserver.udp_shed_truncated",
	"authserver.rrl_dropped",
	"authserver.rrl_slipped",
	"resolver.live.breaker_opens",
	"resolver.live.breaker_skips",
}

func TestModeShapes(t *testing.T) {
	leakcheck.NoGoroutineLeaks(t)
	cfg := liveSmokeConfig()
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("live run: %v", err)
	}
	// wantMoved names counters that must be nonzero after the mode: the
	// server-side event first, the resolver's answer to it second.
	rows := []struct {
		mode      string
		wantMoved []string
		check     func(t *testing.T, m ModeResult, c map[string]int64)
	}{
		{mode: "baseline", check: func(t *testing.T, m ModeResult, c map[string]int64) {
			for _, name := range degradedCounters {
				if c[name] != 0 {
					t.Errorf("healthy fleet moved %s to %d", name, c[name])
				}
			}
			if m.FailurePct != 0 {
				t.Errorf("healthy fleet failed %.2f%% of queries", m.FailurePct)
			}
		}},
		{mode: "rrl", check: func(t *testing.T, m ModeResult, c map[string]int64) {
			if c["authserver.rrl_dropped"]+c["authserver.rrl_slipped"] == 0 {
				t.Error("the rate limiter never engaged")
			}
		}},
		// a silently shed query costs the resolver one per-try timeout
		{mode: "overload-drop", wantMoved: []string{
			"authserver.udp_dropped", "resolver.live.try_timeouts"}},
		// a shed SERVFAIL is the §6.3.1 class the resolver retries past
		{mode: "overload-servfail", wantMoved: []string{
			"authserver.udp_shed_servfail", "resolver.live.try_servfails"}},
		// a shed TC sends the resolver to TCP, which no queue bounds:
		// the policy that sheds without failing anything
		{mode: "overload-tc", wantMoved: []string{
			"authserver.udp_shed_truncated", "resolver.live.tcp_fallbacks"},
			check: func(t *testing.T, m ModeResult, c map[string]int64) {
				if m.FailurePct != 0 {
					t.Errorf("TC shedding failed %.2f%% of queries", m.FailurePct)
				}
			}},
		// the attack window's direction (Eq. 1): the one latency
		// comparison here, with one 40 ms per-try timeout against a
		// ~1 ms loopback answer as its margin
		{mode: "chaos", check: func(t *testing.T, m ModeResult, c map[string]int64) {
			if base := rep.Modes["baseline"]; m.P99NS <= base.P99NS {
				t.Errorf("chaos p99 %s not above baseline %s",
					time.Duration(m.P99NS), time.Duration(base.P99NS))
			}
		}},
		// the resilience.Breaker + LiveResolver interaction: the dead
		// server burns per-try timeouts until its circuit opens, then
		// rotation skips it — try-level failures, not end failures,
		// because retries land on the surviving servers
		{mode: "blackhole", wantMoved: []string{
			"resolver.live.breaker_opens", "resolver.live.breaker_skips",
			"resolver.live.try_timeouts"},
			check: func(t *testing.T, m ModeResult, c map[string]int64) {
				if chaos := rep.Modes["chaos"]; m.FailurePct >= chaos.FailurePct {
					t.Errorf("one dead server failed %.2f%% of queries, no fewer than chaos's %.2f%%",
						m.FailurePct, chaos.FailurePct)
				}
			}},
	}
	if len(rows) != len(ModeNames()) {
		t.Fatalf("%d rows for %d registered modes", len(rows), len(ModeNames()))
	}
	for _, row := range rows {
		t.Run(row.mode, func(t *testing.T) {
			m, ok := rep.Modes[row.mode]
			if !ok {
				t.Fatalf("mode %s missing from report", row.mode)
			}
			if m.Sent != int64(cfg.Queries) {
				t.Errorf("sent %d queries, want %d", m.Sent, cfg.Queries)
			}
			if m.Received == 0 {
				t.Fatal("no answers at all")
			}
			if m.P99NS <= 0 {
				t.Error("answers without latency quantiles")
			}
			// the snapshot must carry both sides of the story: the
			// fleet's merged authserver counters and the client's views
			c := m.Metrics.Counters
			for _, name := range append([]string{"authserver.udp_received", "dnsload.sent"}, row.wantMoved...) {
				if c[name] == 0 {
					t.Errorf("%s never moved", name)
				}
			}
			if row.check != nil {
				row.check(t, m, c)
			}
		})
	}
}
