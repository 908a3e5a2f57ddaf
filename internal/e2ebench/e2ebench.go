// Package e2ebench is the end-to-end benchmark harness of the
// reproduction: it boots an in-process authoritative fleet
// (internal/authserver), drives it with internal/dnsload through a
// retrying resolver.LiveResolver, degrades the path with scripted
// internal/faultinject attack windows, and reports P50/P99 latency,
// achieved rate, and failure percentage per *mode* — baseline, RRL,
// each overload policy, a chaos profile, and a blackholed-server fleet
// — in one summary table plus a machine-readable, schema-versioned
// BENCH_e2e.json (report.go). The paper's Eq. 1 impact metric is an
// end-to-end property (resolution success and latency under attack
// windows), and this harness is the paper-shaped number the repo's
// microbenchmarks (BenchmarkJoin) do not give: the same scripted
// load compared across defense layers, the way Rizvi et al. compare
// layered root-DNS defenses, with the harness shape (warm-up rounds,
// concurrent measured rounds, per-mode quantile summary) borrowed from
// dnsperfbench.
//
// Two drivers share the orchestration and reporting path. The live
// driver (live.go) speaks through real loopback sockets and measures
// wall-clock truth; its numbers are machine-dependent. The
// deterministic driver (sim.go) replaces the transport with a seeded
// in-process model over the same zone data, so two runs with the same
// seed produce byte-identical report bodies — that is what the smoke
// variant in `make test` and the regression-comparator golden tests
// run, keeping the full harness path (mode setup, round loop, metric
// embedding, report encoding, gating) exercised in under a second.
//
// Regression gating lives in compare.go: `make bench-e2e` compares a
// fresh live run against the archived BENCH_e2e.json and fails on
// >Threshold% degradation of per-mode P99 or failure rate.
package e2ebench

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"dnsddos/internal/authserver"
	"dnsddos/internal/faultinject"
	"dnsddos/internal/obs"
	"dnsddos/internal/scenario"
	"dnsddos/internal/stats"
)

// Config describes one harness run. The zero value is not runnable;
// use Default() or Smoke() and override fields.
type Config struct {
	// Seed drives every random choice the harness makes: world
	// generation, resolver rotation and backoff jitter, and — in
	// deterministic mode — the synthetic latency model.
	Seed uint64
	// Modes selects which benchmark modes run, in the given order;
	// empty means every registered mode (ModeNames).
	Modes []string
	// Domains sizes the generated world the fleet serves.
	Domains int
	// Names is how many of those domains the load cycles through.
	Names int
	// Servers is the authoritative fleet size per mode.
	Servers int
	// Rounds is the number of measured rounds per mode; Warmup rounds
	// run first and are discarded from the aggregates.
	Rounds int
	Warmup int
	// Queries is the per-round query count.
	Queries int
	// Concurrency is the dnsload sender fan-out (and the deterministic
	// driver's worker count).
	Concurrency int
	// TargetQPS paces the aggregate send rate; zero means unthrottled.
	TargetQPS float64
	// Timeout bounds one full client resolution (retries included).
	Timeout time.Duration
	// PerTryTimeout bounds one resolver attempt.
	PerTryTimeout time.Duration
	// Deterministic selects the seeded in-process driver (sim.go)
	// instead of real sockets.
	Deterministic bool
}

// Default returns the full live-run configuration behind
// `make bench-e2e`: numbers big enough that percentiles are stable,
// small enough that seven modes finish in tens of seconds.
func Default() Config {
	return Config{
		Seed:          1,
		Domains:       400,
		Names:         32,
		Servers:       3,
		Rounds:        3,
		Warmup:        1,
		Queries:       1500,
		Concurrency:   8,
		Timeout:       2 * time.Second,
		PerTryTimeout: 150 * time.Millisecond,
	}
}

// Smoke returns the sub-second deterministic configuration wired into
// `make test`: tiny corpus, one round, seeded transport model.
func Smoke() Config {
	return Config{
		Seed:          1,
		Domains:       60,
		Names:         8,
		Servers:       2,
		Rounds:        1,
		Warmup:        0,
		Queries:       400,
		Concurrency:   4,
		Timeout:       250 * time.Millisecond,
		PerTryTimeout: 50 * time.Millisecond,
		Deterministic: true,
	}
}

// withDefaults fills unset fields from Default().
func (c Config) withDefaults() Config {
	d := Default()
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if c.Domains <= 0 {
		c.Domains = d.Domains
	}
	if c.Names <= 0 {
		c.Names = d.Names
	}
	if c.Names > c.Domains {
		c.Names = c.Domains
	}
	if c.Servers <= 0 {
		c.Servers = d.Servers
	}
	if c.Rounds <= 0 {
		c.Rounds = d.Rounds
	}
	if c.Warmup < 0 {
		c.Warmup = 0
	}
	if c.Queries <= 0 {
		c.Queries = d.Queries
	}
	if c.Concurrency <= 0 {
		c.Concurrency = d.Concurrency
	}
	if c.Timeout <= 0 {
		c.Timeout = d.Timeout
	}
	if c.PerTryTimeout <= 0 {
		c.PerTryTimeout = d.PerTryTimeout
	}
	return c
}

// modeSpec is one benchmark mode: a server-fleet shape plus the fault
// script applied while the mode's rounds run.
type modeSpec struct {
	name string
	desc string
	// overload configures the policy answered at a full worker queue;
	// forceOverload shrinks the queue (one worker, tiny depth, small
	// per-answer delay) so the policy actually engages under the
	// harness load.
	overload      authserver.OverloadPolicy
	forceOverload bool
	// rrl enables per-/24 response rate limiting.
	rrl *authserver.RRLConfig
	// attack, when non-nil, is the fault profile engaged on every
	// server listener during the mode's attack window (the middle
	// third of the measured rounds — see attackRound).
	attack *faultinject.Profile
	// blackhole drops 100% of traffic on the first fleet server for
	// the whole mode, exercising the resolver's per-server circuit
	// breaker (resilience.Breaker) around a dead authoritative.
	blackhole bool
}

// chaosProfile is the scripted attack-window fault mix of the "chaos"
// mode: the loss plus inflated-latency shape of the paper's attack
// windows (§6.3), sized so the retrying resolver usually still
// resolves — at visibly inflated RTT.
var chaosProfile = faultinject.Profile{
	Drop:    0.30,
	Latency: 2 * time.Millisecond,
	Jitter:  2 * time.Millisecond,
}

// modeRegistry is the ordered mode list. Order here is presentation
// order in the summary table; the JSON report keys modes by name.
var modeRegistry = []modeSpec{
	{name: "baseline", desc: "healthy fleet, no defenses engaged"},
	{name: "rrl", desc: "per-/24 response rate limiting with SLIP",
		rrl: &authserver.RRLConfig{ResponsesPerSecond: 400, Burst: 200, Slip: 2}},
	{name: "overload-drop", desc: "forced queue overflow, sheds silently",
		overload: authserver.OverloadDrop, forceOverload: true},
	{name: "overload-servfail", desc: "forced queue overflow, sheds SERVFAIL",
		overload: authserver.OverloadServFail, forceOverload: true},
	{name: "overload-tc", desc: "forced queue overflow, sheds TC",
		overload: authserver.OverloadTruncate, forceOverload: true},
	{name: "chaos", desc: "scripted attack window: 30% loss, +2ms±2ms",
		attack: &chaosProfile},
	{name: "blackhole", desc: "one fleet server drops everything; breaker skips it",
		blackhole: true},
}

// ModeNames returns every registered mode name, in table order.
func ModeNames() []string {
	names := make([]string, len(modeRegistry))
	for i, m := range modeRegistry {
		names[i] = m.name
	}
	return names
}

// findMode resolves a mode name.
func findMode(name string) (modeSpec, error) {
	for _, m := range modeRegistry {
		if m.name == name {
			return m, nil
		}
	}
	return modeSpec{}, fmt.Errorf("e2ebench: unknown mode %q (have %s)",
		name, strings.Join(ModeNames(), ", "))
}

// attackRound reports whether measured round r (0-based) of total
// falls inside the mode's attack window: the canonical three-phase
// script (healthy / attack / recovered) mapped onto round indices —
// the middle third, covering at least one round. With a single round
// the window spans it.
func attackRound(r, total int) bool {
	if total <= 1 {
		return true
	}
	lo := total / 3
	hi := (2*total + 2) / 3 // ceil(2n/3), exclusive
	if hi <= lo {
		hi = lo + 1
	}
	return r >= lo && r < hi
}

// roundOutcome is one measured round as the drivers hand it to the
// aggregator: raw counts plus the latency samples (seconds, unsorted)
// of every answered query.
type roundOutcome struct {
	sent, received            int64
	timeouts, servfails, errs int64
	truncated                 int64
	latencies                 []float64
	elapsed                   time.Duration
	metrics                   obs.Snapshot
}

// Run executes the configured harness and assembles the report. Modes
// run sequentially — each boots its own fleet, so one mode's backlog
// can never bleed into the next.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	modeNames := cfg.Modes
	if len(modeNames) == 0 {
		modeNames = ModeNames()
	}
	specs := make([]modeSpec, 0, len(modeNames))
	for _, name := range modeNames {
		spec, err := findMode(name)
		if err != nil {
			return nil, err
		}
		specs = append(specs, spec)
	}

	world := scenario.GenerateWorld(scenario.WorldConfig{
		Seed:             cfg.Seed,
		Domains:          cfg.Domains,
		GenericProviders: 8,
		AnycastRecall:    0.9,
	})
	zone := authserver.FromDB(world.DB)
	names := make([]string, cfg.Names)
	for i := range names {
		names[i] = world.DB.Domains[i*len(world.DB.Domains)/cfg.Names].Name
	}

	rep := NewReport(cfg)
	for _, spec := range specs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var (
			mr  ModeResult
			err error
		)
		if cfg.Deterministic {
			mr, err = runModeSim(ctx, cfg, spec, names, zone)
		} else {
			mr, err = runModeLive(ctx, cfg, spec, names, zone)
		}
		if err != nil {
			return nil, fmt.Errorf("e2ebench: mode %s: %w", spec.name, err)
		}
		rep.Modes[spec.name] = mr
	}
	return rep, nil
}

// buildModeResult folds the measured rounds of one mode into its
// aggregate: quantiles over the union of latency samples, failure
// percentage over everything issued.
func buildModeResult(spec modeSpec, rounds []roundOutcome) ModeResult {
	mr := ModeResult{Desc: spec.desc}
	var all []float64
	var elapsed time.Duration
	for _, r := range rounds {
		mr.Sent += r.sent
		mr.Received += r.received
		mr.Timeouts += r.timeouts
		mr.ServFails += r.servfails
		mr.Errors += r.errs
		mr.Truncated += r.truncated
		elapsed += r.elapsed
		all = append(all, r.latencies...)
		mr.Rounds = append(mr.Rounds, RoundResult{
			Sent:      r.sent,
			Received:  r.received,
			Timeouts:  r.timeouts,
			ServFails: r.servfails,
			Errors:    r.errs,
			P50NS:     quantileNS(r.latencies, 0.50),
			P99NS:     quantileNS(r.latencies, 0.99),
			ElapsedNS: int64(r.elapsed),
			Metrics:   r.metrics,
		})
	}
	sort.Float64s(all)
	mr.P50NS = quantileNS(all, 0.50)
	mr.P90NS = quantileNS(all, 0.90)
	mr.P99NS = quantileNS(all, 0.99)
	mr.MaxNS = quantileNS(all, 1)
	mr.ElapsedNS = int64(elapsed)
	if elapsed > 0 {
		mr.QPS = float64(mr.Received) / elapsed.Seconds()
	}
	if mr.Sent > 0 {
		failed := mr.Sent - mr.Received + mr.ServFails
		mr.FailurePct = 100 * float64(failed) / float64(mr.Sent)
	}
	return mr
}

// quantileNS returns the q-quantile of latency samples (seconds) in
// nanoseconds. stats.Quantile sorts a copy internally, so ordering of
// the input does not matter.
func quantileNS(sorted []float64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return int64(stats.Quantile(sorted, q) * float64(time.Second))
}
