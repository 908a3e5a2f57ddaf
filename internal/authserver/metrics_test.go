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

// TestMetricsEndpointMatchesStats is the observability acceptance
// check: the registry served over -metrics-addr and the Stats()
// accessor are two views of the same atomic counters, so after real
// traffic the endpoint's numbers must equal Stats() exactly — not
// approximately — and the latency histogram must hold one sample per
// answered UDP query.
func TestMetricsEndpointMatchesStats(t *testing.T) {
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

	st := srv.Stats()
	exact := map[string]int64{
		"authserver.udp_received":       st.UDPReceived,
		"authserver.udp_answered":       st.UDPAnswered,
		"authserver.udp_dropped":        st.UDPDropped,
		"authserver.udp_shed_servfail":  st.UDPShedServFail,
		"authserver.udp_shed_truncated": st.UDPShedTruncated,
		"authserver.rrl_dropped":        st.RRLDropped,
		"authserver.rrl_slipped":        st.RRLSlipped,
		"authserver.udp_malformed":      st.UDPMalformed,
		"authserver.tcp_queries":        st.TCPQueries,
		"authserver.tcp_rejected":       st.TCPRejected,
	}
	for name, want := range exact {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d on the endpoint, Stats() says %d", name, got, want)
		}
	}
	if st.UDPAnswered != queries {
		t.Errorf("UDPAnswered = %d, want %d", st.UDPAnswered, queries)
	}

	h, ok := snap.Histograms["authserver.udp_latency"]
	if !ok {
		t.Fatal("endpoint missing authserver.udp_latency histogram")
	}
	if h.Count != st.UDPAnswered {
		t.Errorf("latency histogram holds %d samples, want one per answered query (%d)", h.Count, st.UDPAnswered)
	}
	if h.P99NS <= 0 || h.MaxNS < h.P99NS {
		t.Errorf("implausible latency quantiles: p99=%d max=%d", h.P99NS, h.MaxNS)
	}
	if th, ok := snap.Histograms["authserver.tcp_latency"]; !ok || th.Count != st.TCPQueries {
		t.Errorf("tcp latency histogram = %+v, want %d samples", th, st.TCPQueries)
	}
}
