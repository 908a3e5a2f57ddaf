package distjoin

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dnsddos/internal/report"
	"dnsddos/internal/study"
)

// TestFleetOutputsGolden is the fleet leg of the root package's golden
// manifest: a coordinator and two worker processes (this test binary,
// re-executed as TestSIGKILLWorkerHelper) run study.QuickConfig, and the
// events CSV, run report and stable metrics of the coordinator's
// in-process join must hash to the lines testdata/outputs.golden pins for
// the single-process run.
func TestFleetOutputsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	want := goldenLines(t, filepath.Join("..", "..", "testdata", "outputs.golden"),
		"events.csv", "run_report.json", "metrics_stable.json")

	coord, err := NewCoordinator(study.QuickConfig(),
		WithHeartbeatInterval(50*time.Millisecond), WithMinWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		cmd := exec.Command(os.Args[0], "-test.run=TestSIGKILLWorkerHelper$")
		cmd.Env = append(os.Environ(), "DISTJOIN_HELPER_ADDR="+coord.Addr())
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			cmd.Process.Kill()
			cmd.Wait()
		})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	s, err := coord.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}

	var events, metrics bytes.Buffer
	if err := report.EventsCSV(&events, s.Events); err != nil {
		t.Fatal(err)
	}
	rep, err := json.Marshal(s.Report)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Report.Metrics.WriteJSON(&metrics); err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string][]byte{
		"events.csv":          events.Bytes(),
		"run_report.json":     rep,
		"metrics_stable.json": metrics.Bytes(),
	} {
		if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != want[name] {
			t.Errorf("%s: sha256 %x, golden %s", name, sum, want[name])
		}
	}
}

// goldenLines reads the named "name sha256" lines of a golden manifest.
func goldenLines(t *testing.T, path string, names ...string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, sum, ok := strings.Cut(sc.Text(), " "); ok {
			want[name] = sum
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if want[name] == "" {
			t.Fatalf("%s: no %s line", path, name)
		}
	}
	return want
}
