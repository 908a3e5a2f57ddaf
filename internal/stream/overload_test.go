package stream

import (
	"bytes"
	"encoding/gob"
	"flag"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"dnsddos/internal/clock"
	"dnsddos/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// halfRateAdmission admits half the feed's average rate, in observations
// per second of stream time (each observation timed at its window's
// start): enough refusals to matter, enough intake to still finalize
// attacks.
func halfRateAdmission(feed []step) Overload {
	n, lo, hi := 0, clock.Window(math.MaxInt64), clock.Window(math.MinInt64)
	for _, s := range feed {
		if s.o != nil {
			n, lo, hi = n+1, min(lo, s.o.Window), max(hi, s.o.Window)
		}
	}
	return Overload{AdmitRate: float64(n) / hi.Start().Sub(lo.Start()).Seconds() / 2}
}

// TestOverloadShedDeterministic: with the admission gate at half the
// feed's rate, two identical runs of a delayed delivery refuse the exact
// same observations — same counters, same emission bytes.
func TestOverloadShedDeterministic(t *testing.T) {
	s, feed := testStudy(t)
	steps := delayed(feed, 5, 2)
	ov := halfRateAdmission(feed)
	run := func() (OverloadStats, []Batch) {
		sink := &memSink{}
		p, err := New(s.Pipeline, sink, WithRSDoS(s.Config.RSDoS), WithLateness(2), WithOverload(ov))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := deliver(p, steps); err != nil {
			t.Fatal(err)
		}
		return p.Overload(), sink.batches
	}
	st1, b1 := run()
	st2, b2 := run()
	if st1.AdmitDenied == 0 {
		t.Error("admission gate never denied — rate gate untested")
	}
	if st1 != st2 {
		t.Fatalf("refusal counters differ between identical runs:\n  %+v\n  %+v", st1, st2)
	}
	if len(b1) == 0 || !bytes.Equal(gobBytes(t, b1), gobBytes(t, b2)) {
		t.Fatal("identical admission runs emitted different bytes")
	}
}

// TestOverloadMetricsKeys pins the overload.* instrument set (plus the
// rejected-offers counter) against a golden key list, all volatile.
func TestOverloadMetricsKeys(t *testing.T) {
	s, feed := testStudy(t)
	reg := obs.New()
	p, err := New(s.Pipeline, &memSink{},
		WithRSDoS(s.Config.RSDoS), WithLateness(1), WithMetrics(reg), WithOverload(halfRateAdmission(feed)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := deliver(p, feed); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	var keys []string
	for name := range snap.Counters {
		if strings.HasPrefix(name, "overload.") || name == "stream.offers_rejected" {
			keys = append(keys, name)
		}
	}
	for name := range snap.Gauges {
		if strings.HasPrefix(name, "overload.") {
			keys = append(keys, name)
		}
	}
	sort.Strings(keys)
	got := strings.Join(keys, "\n") + "\n"

	golden := filepath.Join("testdata", "overload_metrics_keys.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("overload metric keys changed:\ngot:\n%swant:\n%s(run with -update to accept)", got, want)
	}
	if d := snap.Counters["overload.admit_denied"]; d != p.Overload().AdmitDenied || d == 0 {
		t.Errorf("overload.admit_denied = %d, pipeline counted %d", d, p.Overload().AdmitDenied)
	}
	// overload instrumentation is volatile: absent from stable snapshots
	stable := reg.StableSnapshot()
	for name := range stable.Counters {
		if strings.HasPrefix(name, "overload.") {
			t.Errorf("volatile counter %q leaked into StableSnapshot", name)
		}
	}
	for name := range stable.Gauges {
		if strings.HasPrefix(name, "overload.") {
			t.Errorf("volatile gauge %q leaked into StableSnapshot", name)
		}
	}
}

func gobBytes(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("gob: %v", err)
	}
	return buf.Bytes()
}
