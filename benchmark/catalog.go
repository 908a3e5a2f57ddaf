package main

// catalog.go is the single list of what the benchmark runs and reports.
// BENCHMARK.json at the repo root repeats it for the driver; the smoke
// test fails when the two drift.

// workloadDef names one workload and the reason it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	run  func(*env) error
}

// metricDef describes one reported number. Bound (end-to-end metrics
// only) is the share of the parent's median by which the metric may get
// worse before a change counts as a regression.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

var workloads = []workloadDef{
	{"study_batch", "full batch study (generate, infer, sweep, merge, join, CSV), days kept in memory, attack schedule from fixed seed 7: the sweep is ~80% of it, so sweep optimisations must show here", runStudyBatch},
	{"study_sealed", "same study with every day sealed to a column file and journaled instead of merged: the write side of the day store, so a sweep gain bought by a slower seal shows here", runStudySealed},
	{"join_dense", "cold re-joins of a dense attack feed (schedule from fixed seed 7) over pre-sealed days: bypasses the sweep, only core, daystore reads and report run, so sweep changes must leave it unmoved", runJoinDense},
	{"serve_clean", "closed-loop NS queries through the live resolver at a 2-server loopback fleet, no faults: only dnswire, authserver, resolver and dnsload run, per-packet cost dominates", runServeClean},
}

// An operation is one study run (config in, events CSV out), one cold
// re-join, or one resolved query, depending on the workload. What an
// operation takes in time is not here but in the per-layer list (op.*):
// on the shared build machine it moves by tens of per cent with the host,
// which no bound the driver allows can hold (README.md, "Timings").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_alloc_kb", "kB", "lower", 0.08},
	{"op_allocs", "count", "lower", 0.08},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// Per-layer metrics come from the traced pass; the prefix is the package
// the time or count belongs to (op: the whole operation, measured on the
// repeats that run with the tracer off). A layer the workload does not
// exercise reports 0.
var perLayer = []metricDef{
	{Name: "op.wall_ms", Unit: "ms", Better: "lower"},
	{Name: "op.cpu_ms", Unit: "ms", Better: "lower"},
	{Name: "scenario.generate_s", Unit: "s", Better: "lower"},
	{Name: "scenario.domains", Unit: "count", Better: "higher"},
	{Name: "scenario.obs_windows", Unit: "count", Better: "higher"},
	{Name: "rsdos.infer_s", Unit: "s", Better: "lower"},
	{Name: "rsdos.attacks", Unit: "count", Better: "higher"},
	{Name: "openintel.sweep_s", Unit: "s", Better: "lower"},
	{Name: "openintel.records", Unit: "count", Better: "higher"},
	{Name: "openintel.ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "openintel.domain_days_per_s", Unit: "1/s", Better: "higher"},
	{Name: "resolver.resolve_self_s", Unit: "s", Better: "lower"},
	{Name: "resolver.tries_per_record", Unit: "ratio", Better: "lower"},
	{Name: "resolver.failed_share", Unit: "ratio", Better: "lower"},
	{Name: "simnet.query_s", Unit: "s", Better: "lower"},
	{Name: "simnet.queries", Unit: "count", Better: "lower"},
	{Name: "simnet.ns_per_query", Unit: "ns", Better: "lower"},
	{Name: "nsset.add_s", Unit: "s", Better: "lower"},
	{Name: "nsset.add_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "nsset.add_allocs_per_record", Unit: "count", Better: "lower"},
	{Name: "nsset.merge_s", Unit: "s", Better: "lower"},
	{Name: "nsset.snapshot_s", Unit: "s", Better: "lower"},
	{Name: "nsset.keys", Unit: "count", Better: "higher"},
	{Name: "nsset.windows", Unit: "count", Better: "higher"},
	{Name: "daystore.seal_s", Unit: "s", Better: "lower"},
	{Name: "daystore.seal_mb", Unit: "MB", Better: "lower"},
	{Name: "daystore.bytes_per_record", Unit: "B", Better: "lower"},
	{Name: "daystore.open_s", Unit: "s", Better: "lower"},
	{Name: "daystore.close_s", Unit: "s", Better: "lower"},
	{Name: "checkpoint.write_s", Unit: "s", Better: "lower"},
	{Name: "checkpoint.records", Unit: "count", Better: "higher"},
	{Name: "core.index_s", Unit: "s", Better: "lower"},
	{Name: "core.classify_s", Unit: "s", Better: "lower"},
	{Name: "core.events_s", Unit: "s", Better: "lower"},
	{Name: "core.events", Unit: "count", Better: "higher"},
	{Name: "core.dns_attacks", Unit: "count", Better: "higher"},
	{Name: "core.day_cache_hit_share", Unit: "ratio", Better: "higher"},
	{Name: "core.join_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "report.csv_s", Unit: "s", Better: "lower"},
	{Name: "report.csv_bytes", Unit: "B", Better: "lower"},
	{Name: "study.unattributed_s", Unit: "s", Better: "lower"},
	{Name: "dnswire.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "dnswire.encode_allocs", Unit: "count", Better: "lower"},
	{Name: "dnswire.decode_ns", Unit: "ns", Better: "lower"},
	{Name: "dnswire.decode_allocs", Unit: "count", Better: "lower"},
	{Name: "dnswire.response_bytes", Unit: "B", Better: "lower"},
	{Name: "authserver.answer_ns", Unit: "ns", Better: "lower"},
	{Name: "authserver.answer_allocs", Unit: "count", Better: "lower"},
	{Name: "authserver.handle_p50_us", Unit: "us", Better: "lower"},
	{Name: "authserver.udp_answered", Unit: "count", Better: "higher"},
	{Name: "authserver.udp_dropped", Unit: "count", Better: "lower"},
	{Name: "authserver.raw_rtt_p50_us", Unit: "us", Better: "lower"},
	{Name: "resolver.live_overhead_us", Unit: "us", Better: "lower"},
	{Name: "resolver.tries_per_query", Unit: "ratio", Better: "lower"},
	{Name: "resolver.tcp_fallbacks", Unit: "count", Better: "lower"},
	{Name: "resolver.breaker_opens", Unit: "count", Better: "lower"},
	{Name: "dnsload.qps", Unit: "1/s", Better: "higher"},
	{Name: "dnsload.qps_best", Unit: "1/s", Better: "higher"},
	{Name: "dnsload.rtt_p99_us", Unit: "us", Better: "lower"},
	{Name: "dnsload.rtt_p999_us", Unit: "us", Better: "lower"},
	{Name: "dnsload.samples", Unit: "count", Better: "higher"},
	{Name: "machine.steal_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "lower"},
}

// scale is the size of every workload's inputs. The full scale is what
// BENCHMARK.json's numbers are measured at; the smoke scale only proves
// the harness works (main_test.go).
type scale struct {
	studyDomains, studyProviders, studyAttacks, studyDays int
	joinDomains, joinProviders, joinAttacks, joinDays     int
	joinDNSShare                                          float64
	serveDomains, serveNames, serveSegment, serveWarmup   int
	probeIters                                            int
	// How many times a run sets up: cheap set-ups are repeated more.
	studySetups, joinSetups, serveSetups int
}

var fullScale = scale{
	studyDomains: 12000, studyProviders: 60, studyAttacks: 6000, studyDays: 150,
	joinDomains: 6000, joinProviders: 60, joinAttacks: 20000, joinDays: 150, joinDNSShare: 0.15,
	serveDomains: 2000, serveNames: 512, serveSegment: 8000, serveWarmup: 16000,
	probeIters:  20000,
	studySetups: 11, joinSetups: 3, serveSetups: 300,
}

var smokeScale = scale{
	studyDomains: 1500, studyProviders: 20, studyAttacks: 1500, studyDays: 35,
	joinDomains: 1500, joinProviders: 20, joinAttacks: 3000, joinDays: 30, joinDNSShare: 0.15,
	serveDomains: 300, serveNames: 64, serveSegment: 300, serveWarmup: 100,
	probeIters:  200,
	studySetups: 1, joinSetups: 1, serveSetups: 1,
}
