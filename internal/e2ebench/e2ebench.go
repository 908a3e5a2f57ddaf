// Package e2ebench is the degraded-mode sweep of the serving stack:
// per *mode* — baseline, RRL, each overload policy, a chaos profile,
// and a blackholed-server fleet — it boots an in-process authoritative
// fleet (internal/authserver) on loopback, drives it with
// internal/dnsload through a retrying resolver.LiveResolver, degrades
// the path with a scripted internal/faultinject attack window
// (live.go), and reports P50/P99 latency, achieved rate and failure
// percentage in one summary table (report.go) that `go run ./cmd/bench`
// prints: the same scripted load compared across defense layers, one
// row per defense, the way Rizvi et al. compare layered root-DNS
// defenses, with the harness shape (warm-up rounds, concurrent
// measured rounds, per-mode quantile summary) borrowed from
// dnsperfbench.
//
// What the sweep shows is a shape, not a number: resolution survives an
// attack at inflated RTT, and what fails splits into timeouts and
// SERVFAILs (the paper's Eq. 1 and §6.3.1). The latencies are
// wall-clock truth on whatever host ran them and gate nothing — the
// repo's gated numbers live in benchmark/ only. The shape is pinned as
// counters instead: TestModeShapes runs every mode once over real
// sockets and asserts which shed, rate-limit, retry and breaker
// counters moved.
package e2ebench

import (
	"context"
	"fmt"
	"strings"
	"time"

	"dnsddos/internal/authserver"
	"dnsddos/internal/dnsload"
	"dnsddos/internal/faultinject"
	"dnsddos/internal/obs"
	"dnsddos/internal/scenario"
	"dnsddos/internal/stats"
)

// Config describes one harness run; start from Default() and override
// fields.
type Config struct {
	// Seed drives every random choice the harness makes: world
	// generation, fault injection, resolver rotation and backoff jitter.
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
	// Concurrency is the dnsload sender fan-out.
	Concurrency int
	// TargetQPS paces the aggregate send rate; zero means unthrottled.
	TargetQPS float64
	// Timeout bounds one full client resolution (retries included).
	Timeout time.Duration
	// PerTryTimeout bounds one resolver attempt.
	PerTryTimeout time.Duration
}

// Default returns the configuration `go run ./cmd/bench` runs: numbers
// big enough that percentiles are stable, small enough that seven
// modes finish in tens of seconds.
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
	// overload configures the policy answered at a full worker queue;
	// forceOverload shrinks the queue (one worker, one slot, small
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
// order in the summary table.
var modeRegistry = []modeSpec{
	// healthy fleet, no defenses engaged
	{name: "baseline"},
	// per-/24 response rate limiting with SLIP; the bucket is shallower
	// than one server's share of the smallest run, so the limiter engages
	{name: "rrl", rrl: &authserver.RRLConfig{ResponsesPerSecond: 400, Burst: 10, Slip: 2}},
	// forced queue overflow, one row per shed policy: silence, SERVFAIL, TC
	{name: "overload-drop", overload: authserver.OverloadDrop, forceOverload: true},
	{name: "overload-servfail", overload: authserver.OverloadServFail, forceOverload: true},
	{name: "overload-tc", overload: authserver.OverloadTruncate, forceOverload: true},
	// scripted attack window: 30% loss, +2ms±2ms
	{name: "chaos", attack: &chaosProfile},
	// one fleet server drops everything; the breaker skips it
	{name: "blackhole", blackhole: true},
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

	rep := &Report{Modes: make(map[string]ModeResult)}
	for _, spec := range specs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		mr, err := runModeLive(ctx, cfg, spec, names, zone)
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
func buildModeResult(rounds []*dnsload.Result, metrics obs.Snapshot) ModeResult {
	mr := ModeResult{Metrics: metrics}
	var all []float64
	var elapsed time.Duration
	for _, r := range rounds {
		mr.Sent += r.Sent
		mr.Received += r.Received
		mr.Timeouts += r.Timeouts
		mr.ServFails += r.ServFails()
		elapsed += r.Elapsed
		all = append(all, r.Latencies()...)
	}
	mr.P50NS = quantileNS(all, 0.50)
	mr.P99NS = quantileNS(all, 0.99)
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
// nanoseconds, 0 for none. stats.Quantile sorts a copy internally, so
// ordering of the input does not matter.
func quantileNS(samples []float64, q float64) int64 {
	return int64(stats.Quantile(samples, q) * float64(time.Second))
}
