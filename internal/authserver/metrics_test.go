package authserver

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"dnsddos/internal/dnswire"
	"dnsddos/internal/leakcheck"
	"dnsddos/internal/obs"
	"dnsddos/internal/resolver"
)

// TestMetricsEndpointMatchesRegistry is the observability acceptance
// check: the JSON served over -metrics-addr is the server's registry
// (Server.Metrics), so after real traffic the endpoint's counters must
// equal the registry's exactly — not approximately — and the latency
// histogram must hold one sample per answered UDP query.
func TestMetricsEndpointMatchesRegistry(t *testing.T) {
	leakcheck.NoGoroutineLeaks(t)

	addr, srv := startTestServer(t)
	ms, err := obs.Serve("127.0.0.1:0", srv.Metrics())
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()

	client := &resolver.UDPClient{Timeout: 2 * time.Second}
	ctx := context.Background()
	const queries = 25
	for i := 0; i < queries; i++ {
		if _, _, err := client.Query(ctx, addr, "example.nl", dnswire.TypeNS); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	tctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	if _, err := QueryTCP(tctx, addr, "example.nl", dnswire.TypeNS); err != nil {
		t.Fatal(err)
	}

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
		t.Fatalf("endpoint served invalid JSON: %v\n%s", err, body)
	}

	for _, name := range []string{
		"udp_received", "udp_answered", "udp_dropped", "udp_shed_servfail", "udp_shed_truncated",
		"rrl_dropped", "rrl_slipped", "udp_malformed", "tcp_accepted", "tcp_rejected", "tcp_queries",
	} {
		if got, want := snap.Counters["authserver."+name], counter(srv, name); got != want {
			t.Errorf("authserver.%s = %d on the endpoint, the registry says %d", name, got, want)
		}
	}
	answered, tcpQueries := counter(srv, "udp_answered"), counter(srv, "tcp_queries")
	if answered != queries {
		t.Errorf("authserver.udp_answered = %d, want %d", answered, queries)
	}

	h, ok := snap.Histograms["authserver.udp_latency"]
	if !ok {
		t.Fatal("endpoint missing authserver.udp_latency histogram")
	}
	if h.Count != answered {
		t.Errorf("latency histogram holds %d samples, want one per answered query (%d)", h.Count, answered)
	}
	if h.P99NS <= 0 || h.MaxNS < h.P99NS {
		t.Errorf("implausible latency quantiles: p99=%d max=%d", h.P99NS, h.MaxNS)
	}
	if th, ok := snap.Histograms["authserver.tcp_latency"]; !ok || th.Count != tcpQueries {
		t.Errorf("tcp latency histogram = %+v, want %d samples", th, tcpQueries)
	}
}

// counter reads srv's traffic counter authserver.<name> by name, through
// its registry.
func counter(srv *Server, name string) int64 {
	return srv.Metrics().Counter("authserver." + name).Load()
}
