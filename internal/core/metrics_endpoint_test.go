package core

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"dnsddos/internal/clock"
	"dnsddos/internal/nsset"
	"dnsddos/internal/obs"
	"dnsddos/internal/rsdos"
)

// TestJoinMetricsOnEndpoint pins the join engine's observability
// acceptance: after a join, the live /metrics.json view (obs.Serve, the
// -metrics-addr surface of joinpipe/report) carries the engine's
// counters, the victim and shard gauges, and the per-shard latency
// histogram — and none of them leak into the deterministic StableSnapshot
// that seeded-run reports embed.
func TestJoinMetricsOnEndpoint(t *testing.T) {
	db, addrs, keys := buildWideWorld(t, 8)
	agg := nsset.NewAggregator()
	attacks := make([]rsdos.Attack, 0, len(addrs))
	for i, a := range addrs {
		aw := clock.Day(40).FirstWindow() + clock.Window(10*i)
		seedMeasurements(agg, keys[i/2], aw.Day(), 10*time.Millisecond, aw, 100*time.Millisecond, 8, 2)
		attacks = append(attacks, mkAttack(i+1, a, aw, aw+2, 53))
	}

	reg := obs.New()
	p := NewPipeline(db, WithDayStore(agg), WithMetrics(reg))
	// twice: the second join takes the memoized plan
	for i := 0; i < 2; i++ {
		if ev, err := p.EventsContext(context.Background(), attacks); err != nil || len(ev) == 0 {
			t.Fatalf("join %d: %d events, err %v", i, len(ev), err)
		}
	}

	ms, err := obs.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	httpc := &http.Client{
		Timeout:   5 * time.Second,
		Transport: &http.Transport{DisableKeepAlives: true},
	}
	resp, err := httpc.Get("http://" + ms.Addr() + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}

	if got := snap.Counters["core.join.events"]; got <= 0 {
		t.Errorf("core.join.events = %d, want > 0", got)
	}
	for _, g := range []string{"core.join.victims", "core.join.shards"} {
		if _, ok := snap.Gauges[g]; !ok {
			t.Errorf("gauge %q missing from /metrics.json", g)
		}
	}
	if h, ok := snap.Histograms["core.join.shard_latency_ns"]; !ok || h.Count <= 0 {
		t.Errorf("shard_latency_ns histogram missing or empty (present=%v)", ok)
	}

	// run-dependent numbers must stay out of the deterministic snapshot
	stable := reg.StableSnapshot()
	for name := range stable.Counters {
		if len(name) >= 9 && name[:9] == "core.join" {
			t.Errorf("volatile counter %q leaked into StableSnapshot", name)
		}
	}
	for name := range stable.Gauges {
		if len(name) >= 9 && name[:9] == "core.join" {
			t.Errorf("volatile gauge %q leaked into StableSnapshot", name)
		}
	}
}
