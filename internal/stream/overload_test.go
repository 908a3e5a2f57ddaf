package stream

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"dnsddos/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// halfRateAdmission admits half the trace's average arrival rate, in
// packets per second of stream time: enough refusals to matter, enough
// intake to still finalize attacks.
func halfRateAdmission(trace []tracePkt) Overload {
	dur := trace[len(trace)-1].ts.Sub(trace[0].ts).Seconds()
	return Overload{AdmitRate: float64(len(trace)) / dur / 2}
}

// TestOverloadShedDeterministic: with the admission gate at half the
// trace rate, two identical runs refuse the exact same packets — same
// counters, same emission bytes.
func TestOverloadShedDeterministic(t *testing.T) {
	s := testStudy(t)
	trace := collectTrace(s, 2)
	ov := halfRateAdmission(trace)
	run := func() (OverloadStats, []Batch) {
		sink := &memSink{}
		p, err := New(s.Telescope, s.Pipeline, sink,
			WithRSDoS(s.Config.RSDoS), WithLateness(2), WithOverload(ov))
		if err != nil {
			t.Fatal(err)
		}
		if err := feed(p, trace); err != nil {
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
	if !bytes.Equal(gobBytes(t, b1), gobBytes(t, b2)) {
		t.Fatal("identical admission runs emitted different bytes")
	}
}

// TestOverloadMetricsKeys pins the overload.* instrument set (plus the
// rejected-offers counter) against a golden key list, all volatile.
func TestOverloadMetricsKeys(t *testing.T) {
	s := testStudy(t)
	trace := collectTrace(s, 0)
	reg := obs.New()
	p, err := New(s.Telescope, s.Pipeline, &memSink{},
		WithRSDoS(s.Config.RSDoS), WithLateness(1), WithMetrics(reg), WithOverload(halfRateAdmission(trace)))
	if err != nil {
		t.Fatal(err)
	}
	if err := feed(p, trace); err != nil {
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
