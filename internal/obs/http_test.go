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

// TestServeEndpoints covers the three export surfaces over a real
// listener and — via the leak helper — that Close fully drains the
// HTTP serve loop.
func TestServeEndpoints(t *testing.T) {
	leakcheck.NoGoroutineLeaks(t)

	reg := New()
	reg.Counter("authserver.udp_answered").Add(99)
	reg.Histogram("authserver.udp_latency").Observe(4 * time.Millisecond)
	// a name from the network: a control byte, invalid UTF-8 and a bell,
	// which Go quoting would render as \x01, \xff and \a — none of them JSON
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

	// /debug/vars: expvar format — an object carrying both the runtime
	// globals and our bridged metrics
	code, body = get(t, base+"/debug/vars")
	if code != http.StatusOK {
		t.Fatalf("/debug/vars status %d", code)
	}
	var vars map[string]any
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars is not valid JSON: %v\n%s", err, body)
	}
	if _, ok := vars["memstats"]; !ok {
		t.Error("/debug/vars missing expvar's memstats")
	}
	if got, ok := vars["authserver.udp_answered"]; !ok || got != float64(99) {
		t.Errorf("/debug/vars missing bridged counter, got %v", got)
	}
	if _, ok := vars["authserver.udp_latency"]; !ok {
		t.Error("/debug/vars missing bridged histogram")
	}
	if _, ok := vars[strings.ToValidUTF8(hostile, "\uFFFD")]; !ok {
		t.Errorf("/debug/vars missing the histogram named %q", hostile)
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
