package dnsddos_test

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"dnsddos/internal/clock"
	"dnsddos/internal/core"
	"dnsddos/internal/report"
	"dnsddos/internal/rsdos"
	"dnsddos/internal/stream"
	"dnsddos/internal/study"
)

// outputs_test.go pins the bytes of what one seeded study writes: the
// events CSV, the RunReport JSON, the stable metrics, every sealed day
// file, the stream CSV and every catalogue artefact file, each as one
// SHA-256 line of testdata/outputs.golden. The parity tests hold the
// batch and stream modes to each other; this holds them to the
// bytes of the commit that wrote the golden file. A change meant to move
// bytes regenerates it, and the file's diff names what moved:
//
//	go test -run TestOutputs -update .

var update = flag.Bool("update", false, "rewrite testdata/outputs.golden")

const goldenPath = "testdata/outputs.golden"

// studyOutputs runs study.QuickConfig once, sealing its days to files,
// and returns every artefact it writes by name.
func studyOutputs(t *testing.T) map[string][]byte {
	t.Helper()
	tmp := t.TempDir()
	days, repDir := filepath.Join(tmp, "days"), filepath.Join(tmp, "report")
	if err := os.Mkdir(repDir, 0o755); err != nil {
		t.Fatal(err)
	}
	cfg := study.QuickConfig()
	s, err := study.RunContext(context.Background(), cfg, study.WithDayStoreDir(days))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	var buf bytes.Buffer
	if err := report.EventsCSV(&buf, s.Events); err != nil {
		t.Fatal(err)
	}
	out["events.csv"] = bytes.Clone(buf.Bytes())
	if out["run_report.json"], err = json.Marshal(s.Report); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := s.Report.Metrics.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out["metrics_stable.json"] = bytes.Clone(buf.Bytes())

	// the stream leg is cmd/streamjoin -quick: the study's feed, in
	// order, at the default lateness, over the study's join
	streamCSV := filepath.Join(tmp, "stream.csv")
	file, err := stream.NewFileSink(streamCSV)
	if err != nil {
		t.Fatal(err)
	}
	sink := &teeSink{file: file}
	p, err := stream.New(s.Pipeline, sink, stream.WithRSDoS(cfg.RSDoS))
	if err != nil {
		t.Fatal(err)
	}
	if err := file.WriteHeader(); err != nil {
		t.Fatal(err)
	}
	s.Session().Feed(func(o *rsdos.WindowObs) { p.Offer(o) }, func(w clock.Window) {
		if err == nil {
			err = p.Advance(w)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := file.Close(); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if _, events := stream.Canonicalize(sink.attacks, sink.events); report.EventsCSV(&buf, events) != nil {
		t.Fatal("rendering the stream's events")
	}
	if !bytes.Equal(buf.Bytes(), out["events.csv"]) {
		t.Errorf("the stream's events, canonicalized, differ from the study's events.csv (%d vs %d bytes)", buf.Len(), len(out["events.csv"]))
	}

	// metrics.json carries wall-clock gauges: only the artefact files are
	// pinned
	if err := report.Export(io.Discard, repDir, s); err != nil {
		t.Fatal(err)
	}
	for _, a := range report.Catalogue {
		out["report/"+a.File] = readFile(t, filepath.Join(repDir, a.File))
	}
	out["stream.csv"] = readFile(t, streamCSV)
	entries, err := os.ReadDir(days)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		out["days/"+e.Name()] = readFile(t, filepath.Join(days, e.Name()))
	}
	return out
}

// teeSink hands each batch to a file sink and keeps its attacks and
// events.
type teeSink struct {
	file    *stream.FileSink
	attacks []rsdos.Attack
	events  []core.Event
}

func (s *teeSink) Emit(b stream.Batch) error {
	s.attacks, s.events = append(s.attacks, b.Attacks...), append(s.events, b.Events...)
	return s.file.Emit(b)
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestOutputs holds every artefact of studyOutputs to its golden hash and
// names each one that moved, appeared or went missing.
func TestOutputs(t *testing.T) {
	got := map[string]string{}
	for name, b := range studyOutputs(t) {
		sum := sha256.Sum256(b)
		got[name] = hex.EncodeToString(sum[:])
	}
	if *update {
		var buf bytes.Buffer
		for _, name := range sortedNames(got) {
			fmt.Fprintf(&buf, "%s %s\n", name, got[name])
		}
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, sum, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenPath, sc.Text())
		}
		want[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, name := range sortedNames(want) {
		switch g, ok := got[name]; {
		case !ok:
			t.Errorf("%s: not written", name)
		case g != want[name]:
			t.Errorf("%s: sha256 %s, golden %s", name, g, want[name])
		}
	}
	for _, name := range sortedNames(got) {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: written but not in %s (rerun with -update)", name, goldenPath)
		}
	}
}

func sortedNames(m map[string]string) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
