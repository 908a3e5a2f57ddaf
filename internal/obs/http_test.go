package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"dnsddos/internal/leakcheck"
)

// get fetches a URL and returns the body. Keep-alives are disabled so
// client transport goroutines cannot outlive the request and trip the
// goroutine-leak checks.
func get(t *testing.T, url string) (int, string) {
	t.Helper()
	client := &http.Client{
		Timeout:   5 * time.Second,
		Transport: &http.Transport{DisableKeepAlives: true},
	}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestServeEndpoints covers the two export surfaces over a real
// listener and — via the leak helper — that Close fully drains the
// HTTP serve loop.
func TestServeEndpoints(t *testing.T) {
	leakcheck.NoGoroutineLeaks(t)

	reg := New()
	reg.Counter("authserver.udp_answered").Add(99)
	reg.Histogram("authserver.udp_latency").Observe(4 * time.Millisecond)
	// a name from the network: a control byte, invalid UTF-8 and a bell,
	// which the JSON encoder must escape or replace
	hostile := "resolver.peer_latency.w\x01\xff\a"
	reg.Histogram(hostile).Observe(time.Millisecond)

	ms, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()
	base := "http://" + ms.Addr()

	// /metrics.json: valid JSON with the metrics visible
	code, body := get(t, base+"/metrics.json")
	if code != http.StatusOK {
		t.Fatalf("/metrics.json status %d", code)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/metrics.json is not valid JSON: %v\n%s", err, body)
	}
	if snap.Counters["authserver.udp_answered"] != 99 {
		t.Errorf("counter missing from /metrics.json: %s", body)
	}
	if snap.Histograms["authserver.udp_latency"].Count != 1 {
		t.Errorf("histogram missing from /metrics.json: %s", body)
	}
	if snap.Histograms[strings.ToValidUTF8(hostile, "\uFFFD")].Count != 1 {
		t.Errorf("/metrics.json missing the histogram named %q", hostile)
	}

	// /debug/pprof/: the index page lists profiles
	code, body = get(t, base+"/debug/pprof/")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", code)
	}
	if !strings.Contains(body, "goroutine") {
		t.Error("/debug/pprof/ index missing the goroutine profile")
	}
	code, _ = get(t, base+"/debug/pprof/goroutine?debug=1")
	if code != http.StatusOK {
		t.Errorf("goroutine profile status %d", code)
	}
	// the runtime's memstats ride on the heap profile
	code, body = get(t, base+"/debug/pprof/heap?debug=1")
	if code != http.StatusOK || !strings.Contains(body, "runtime.MemStats") {
		t.Errorf("heap profile status %d, without the runtime's MemStats", code)
	}

	if err := ms.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	// idempotent
	ms.Close()
}

// TestServeLiveUpdates: the endpoint reflects metrics observed after it
// started — the mid-run visibility the layer exists for.
func TestServeLiveUpdates(t *testing.T) {
	leakcheck.NoGoroutineLeaks(t)
	reg := New()
	ms, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer ms.Close()

	c := reg.Counter("live.hits")
	for i := 1; i <= 3; i++ {
		c.Inc()
		_, body := get(t, fmt.Sprintf("http://%s/metrics.json", ms.Addr()))
		var snap Snapshot
		if err := json.Unmarshal([]byte(body), &snap); err != nil {
			t.Fatal(err)
		}
		if snap.Counters["live.hits"] != int64(i) {
			t.Fatalf("after %d increments endpoint shows %d", i, snap.Counters["live.hits"])
		}
	}
}

// TestServeBadAddr: a bind failure reports an error instead of a panic.
func TestServeBadAddr(t *testing.T) {
	if _, err := Serve("256.0.0.1:bad", New()); err == nil {
		t.Error("bad address must fail to serve")
	}
}
