// Package obs is the unified observability layer of the reproduction: a
// zero-dependency metrics registry of atomic counters, gauges, and
// lock-free log-bucketed latency histograms, with a deterministic JSON
// snapshot encoding and an optional HTTP export surface (http.go).
//
// The paper's core deliverable is a latency/error measurement — Eq. 1's
// Impact_on_RTT and the SERVFAIL/timeout split of §6.3.1 — and the
// anycast-DDoS measurement line it builds on (Moura et al., Jonker et
// al.) works on percentile distributions, not means. This package gives
// the serving and join stack the same visibility: the authserver's
// per-query latency and shed/RRL verdicts, the live resolver's per-try
// RTTs, dnsload's client-side RTT distribution, and the study pipeline's
// per-stage timings all land in one named registry that can be snapshot
// mid-run (over HTTP) or embedded in the end-of-run study.Report.
//
// Determinism: a Snapshot marshals with sorted metric names and a fixed
// field order, so two runs that observe the same values encode to the
// same bytes. Metrics whose values are inherently run-dependent (wall-
// clock stage timings) are registered with the Volatile option and
// excluded from StableSnapshot, which is what deterministic outputs
// (study.Report, golden tests) embed.
//
// All mutators are safe for concurrent use and allocation-free; every
// metric method is also nil-receiver-safe, so a disabled registry (nil)
// costs call sites a single branch and no conditionals.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load returns the current value (zero on a nil counter).
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores n.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adjusts the gauge by n.
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Load returns the current value (zero on a nil gauge).
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// metricMeta carries per-metric registration options.
type metricMeta struct {
	volatile bool
}

// Option configures a metric at registration.
type Option func(*metricMeta)

// Volatile marks a metric as run-dependent (wall-clock timings, PIDs):
// it appears in Snapshot (and over HTTP) but not in StableSnapshot, so
// deterministic outputs stay byte-identical across seeded runs.
func Volatile() Option {
	return func(m *metricMeta) { m.volatile = true }
}

// Registry is a process-wide named metric registry. The zero value is
// not usable; call New. A nil *Registry is a valid disabled registry:
// every lookup returns a nil metric whose mutators are no-ops.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	meta     map[string]metricMeta
}

// New builds an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		meta:     make(map[string]metricMeta),
	}
}

// register validates that name is unused or already bound to the same
// kind, and records options. Callers hold r.mu.
func (r *Registry) register(name, kind string, opts []Option) {
	if existing, ok := r.kindOf(name); ok && existing != kind {
		panic(fmt.Sprintf("obs: metric %q already registered as a %s, requested as a %s", name, existing, kind))
	}
	if _, ok := r.meta[name]; !ok {
		// declared here, where it escapes to the options, so that a
		// lookup of a registered name allocates nothing
		var m metricMeta
		for _, o := range opts {
			o(&m)
		}
		r.meta[name] = m
	}
}

// kindOf reports the kind a name is bound to. Callers hold r.mu.
func (r *Registry) kindOf(name string) (string, bool) {
	if _, ok := r.counters[name]; ok {
		return "counter", true
	}
	if _, ok := r.gauges[name]; ok {
		return "gauge", true
	}
	if _, ok := r.hists[name]; ok {
		return "histogram", true
	}
	return "", false
}

// Counter returns the named counter, creating it on first use. Nil
// registries return a nil (no-op) counter. Registering a name that is
// already bound to a different metric kind panics.
func (r *Registry) Counter(name string, opts ...Option) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name, "counter", opts)
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string, opts ...Option) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name, "gauge", opts)
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named latency histogram, creating it on first
// use.
func (r *Registry) Histogram(name string, opts ...Option) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name, "histogram", opts)
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Merge folds src's metrics into r: counters and histogram buckets add,
// gauges take src's value, and a metric new to r keeps src's volatility.
// Metric kinds must agree between the two registries (same names bound
// to same kinds), as they do when both sides created their metrics
// through the same instrumented code path. src is copied under its own
// lock and folded in under r's, so the two locks never nest.
func (r *Registry) Merge(src *Registry) {
	if r == nil || src == nil {
		return
	}
	src.mu.Lock()
	stable, volatile := src.snapshotLocked(keepStable), src.snapshotLocked(keepVolatile)
	src.mu.Unlock()
	r.ImportSnapshot(stable)
	r.ImportSnapshot(volatile, Volatile())
}

// ImportSnapshot folds a serialized Snapshot into r: counters and
// histogram buckets add, gauges take the snapshot's value. It is Merge's
// fold. Metrics created by the import are registered with the given
// options.
func (r *Registry) ImportSnapshot(s Snapshot, opts ...Option) {
	if r == nil {
		return
	}
	for name, v := range s.Counters {
		r.Counter(name, opts...).Add(v)
	}
	for name, v := range s.Gauges {
		r.Gauge(name, opts...).Set(v)
	}
	for name, hs := range s.Histograms {
		r.Histogram(name, opts...).importSnapshot(hs)
	}
}

// Snapshot is a point-in-time copy of a registry, shaped for
// deterministic JSON encoding: maps marshal with sorted keys
// (encoding/json's behavior) and every struct field is ordered. Counter
// and gauge values are raw int64s; histograms carry their bucket layout
// and derived quantiles.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies every metric. It is consistent per metric (each value
// is an atomic load) but not across metrics; quiesce writers first when
// exact cross-metric invariants matter.
func (r *Registry) Snapshot() Snapshot { return r.snapshot(keepAll) }

// StableSnapshot copies every metric not registered as Volatile — the
// deterministic subset embedded in seeded-run outputs.
func (r *Registry) StableSnapshot() Snapshot { return r.snapshot(keepStable) }

// The volatility filters a snapshot is taken through.
func keepAll(bool) bool               { return true }
func keepStable(volatile bool) bool   { return !volatile }
func keepVolatile(volatile bool) bool { return volatile }

// snapshot copies the metrics whose volatility keep accepts.
func (r *Registry) snapshot(keep func(volatile bool) bool) Snapshot {
	if r != nil {
		r.mu.Lock()
		defer r.mu.Unlock()
	}
	return r.snapshotLocked(keep)
}

// snapshotLocked is snapshot with r.mu held (a nil r copies nothing).
func (r *Registry) snapshotLocked(keep func(volatile bool) bool) Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	for name, c := range r.counters {
		if keep(r.meta[name].volatile) {
			s.Counters[name] = c.Load()
		}
	}
	for name, g := range r.gauges {
		if keep(r.meta[name].volatile) {
			s.Gauges[name] = g.Load()
		}
	}
	for name, h := range r.hists {
		if keep(r.meta[name].volatile) {
			s.Histograms[name] = h.Snapshot()
		}
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON. The encoding is
// deterministic: identical snapshots produce identical bytes.
func (s Snapshot) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// Names returns every registered metric name, sorted.
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.meta))
	for name := range r.meta {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
