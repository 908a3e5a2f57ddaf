package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// isDifference names the per-layer metrics that subtract one measurement
// from another and so may read below zero.
var isDifference = map[string]bool{
	"study.unattributed_s":      true,
	"resolver.live_overhead_us": true,
	"trace.overhead_share":      true,
}

// TestSmoke runs every workload at smoke scale, untraced and traced, and
// checks the shape of what comes out: every catalogued metric once, finite,
// with its unit; outputs correct; a trace whose spans all have parents.
func TestSmoke(t *testing.T) {
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			name := wl.Name + "/untraced"
			if traced {
				name = wl.Name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				e := &env{
					workload: wl.Name,
					seed:     1,
					budget:   200 * time.Millisecond,
					traced:   traced,
					sc:       smokeScale,
					outDir:   t.TempDir(),
					log:      io.Discard,
				}
				res, err := runWorkload(e)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics emitted, catalogue has %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("%s not emitted", d.Name)
					case m.Unit != d.Unit:
						t.Errorf("%s has unit %q, catalogue says %q", d.Name, m.Unit, d.Unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("%s = %v", d.Name, m.Value)
					case !traced && m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, must never be 0", d.Name, m.Value)
					case m.Value < 0 && !isDifference[d.Name]:
						t.Errorf("%s = %v, only differences may be negative", d.Name, m.Value)
					}
				}
				if traced {
					checkTrace(t, filepath.Join(e.outDir, "trace-"+wl.Name+".json"))
				}
			})
		}
	}
}

func checkTrace(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no spans")
	}
	ids := make(map[int]bool, len(doc.TraceEvents))
	for _, ev := range doc.TraceEvents {
		ids[ev.Args["id"]] = true
	}
	for _, ev := range doc.TraceEvents {
		if p := ev.Args["parent"]; p != noSpan && !ids[p] {
			t.Errorf("span %d (%s) names parent %d, which is not in the trace", ev.Args["id"], ev.Name, p)
		}
		if ev.Dur < 0 {
			t.Errorf("span %d (%s) has negative duration", ev.Args["id"], ev.Name)
		}
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json, which the driver
// reads, equal to what the binary emits.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []jsonMetric  `json:"end_to_end"`
		PerLayer   []jsonMetric  `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", doc.Paths)
	}
	if !reflect.DeepEqual(doc.Command, []string{"bash", "benchmark/run.sh"}) {
		t.Errorf("command = %v", doc.Command)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}

	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the binary", len(doc.Workloads), len(workloads))
	}
	seen := make(map[string]bool)
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, binary has %q: %q", i, doc.Workloads[i], w.Name, w.Why)
		}
		if !nameRE.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q invalid or repeated", w.Name)
		}
		seen[w.Name] = true
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}

	compare := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the binary", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s, %s], binary has %s [%s, %s]", kind, i, g.Name, g.Unit, g.Better, d.Name, d.Unit, d.Better)
			}
			if !nameRE.MatchString(d.Name) || seen[d.Name] {
				t.Errorf("metric name %q invalid or repeated", d.Name)
			}
			seen[d.Name] = true
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: better = %q", d.Name, d.Better)
			}
			switch {
			case !bounded && g.Bound != nil:
				t.Errorf("%s: per-layer metrics have no bound", d.Name)
			case bounded && (g.Bound == nil || *g.Bound != d.Bound):
				t.Errorf("%s: bound differs from the binary's %v", d.Name, d.Bound)
			case bounded && (d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd, true)
	compare("per_layer", doc.PerLayer, perLayer, false)
	for _, d := range endToEnd {
		if d.Name != "setup_s" && d.Bound > endToEnd[0].Bound {
			t.Errorf("%s has a larger bound than setup_s", d.Name)
		}
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Errorf("first end-to-end metric must be setup_s [s, lower], is %+v", endToEnd[0])
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	got := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	want := [3]float64{2.75, 5.5, 8.25}
	if got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
	got = quartiles([]float64{9, 1, 4})
	want = [3]float64{1, 4, 9}
	if got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
}
