package distjoin

import (
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"dnsddos/internal/obs"
)

// metrics_golden_test.go pins the fleet's /metrics.json surface: the
// set of distjoin.* metric names a distributed run publishes is part of
// the observability contract (dashboards key on them), so drift must be
// deliberate. Values vary run to run — wall-clock latencies, scheduling
// order — so the golden covers the key set plus the few exact invariants
// a healthy run guarantees. Regenerate with:
//
//	go test ./internal/distjoin/ -run TestFleetMetricsGolden -update

var update = flag.Bool("update", false, "rewrite golden files")

func TestFleetMetricsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	workers := []*Worker{NewWorker("alpha"), NewWorker("bravo")}
	s, reg, _, err := runFleet(t, context.Background(), testConfig(), nil, workers)
	if err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(obs.Handler(reg))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters   map[string]int64          `json:"counters"`
		Gauges     map[string]int64          `json:"gauges"`
		Histograms map[string]map[string]any `json:"histograms"`
	}
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("decoding /metrics.json: %v", err)
	}

	var keys []string
	for k := range snap.Counters {
		if strings.HasPrefix(k, "distjoin.") {
			keys = append(keys, "counter "+k)
		}
	}
	for k := range snap.Gauges {
		if strings.HasPrefix(k, "distjoin.") {
			keys = append(keys, "gauge "+k)
		}
	}
	for k := range snap.Histograms {
		if strings.HasPrefix(k, "distjoin.") {
			keys = append(keys, "histogram "+k)
		}
	}
	sort.Strings(keys)
	got := strings.Join(keys, "\n") + "\n"

	path := filepath.Join("testdata", "fleet_metrics.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("fleet metric surface drifted from golden (rerun with -update if intended)\ngot:\n%s\nwant:\n%s", got, want)
	}

	// exact invariants of a healthy two-worker run
	days := int64(int(testConfig().ToDay-testConfig().FromDay) + 1)
	if n := snap.Counters["distjoin.sweep_days_done"]; n != days {
		t.Errorf("sweep_days_done = %d, want %d", n, days)
	}
	if n := snap.Counters["distjoin.reassignments"]; n != 0 {
		t.Errorf("healthy run recorded %d reassignments", n)
	}
	for _, w := range []string{"alpha", "bravo"} {
		h, ok := snap.Histograms["distjoin.worker_latency."+w]
		if !ok {
			t.Errorf("no latency histogram for worker %s", w)
			continue
		}
		if c, _ := h["count"].(float64); c < 1 {
			t.Errorf("worker %s latency histogram empty", w)
		}
	}
	_ = s
}
