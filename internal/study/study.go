// Package study orchestrates a full end-to-end run of the reproduction:
// generate the world and the 17-month attack schedule, run the telescope
// and RSDoS inference, run the OpenINTEL daily sweeps over the simulated
// data plane, and execute the core join pipeline. The cmd tools, the
// report catalogue and the benchmarks all build on it.
package study

import (
	"time"

	"dnsddos/internal/clock"
	"dnsddos/internal/core"
	"dnsddos/internal/nsset"
	"dnsddos/internal/obs"
	"dnsddos/internal/openintel"
	"dnsddos/internal/resolver"
	"dnsddos/internal/rsdos"
	"dnsddos/internal/scenario"
	"dnsddos/internal/simnet"
	"dnsddos/internal/telescope"
)

// Config collects every knob of a full study run.
type Config struct {
	World    scenario.WorldConfig
	Attacks  scenario.AttackConfig
	Synth    scenario.SynthConfig
	RSDoS    rsdos.Config
	Net      simnet.Params
	Resolver resolver.Config
	Pipeline core.Config
	// MeasureSeed drives the OpenINTEL engine.
	MeasureSeed uint64
	// FromDay/ToDay bound the measured interval (inclusive); zero values
	// mean the full study window.
	FromDay, ToDay clock.Day
	// WindowMarginBefore/After extend, before the first and past the last
	// window of each attack on a nameserver address, the span over which
	// the NSSets containing the victim keep per-window metrics (every
	// other NSSet and window keeps only its day baseline), so the
	// time-series figures have context around the attack.
	WindowMarginBefore time.Duration
	WindowMarginAfter  time.Duration
	// Parallelism shards the daily sweeps across goroutines (0 = all
	// cores).
	Parallelism int
	// Noise, when enabled, mixes scanner/misconfiguration IBR into the
	// telescope observations before inference; the Moore-style
	// thresholds are expected to reject it (DESIGN §2).
	Noise        scenario.NoiseConfig
	IncludeNoise bool
}

// DefaultConfig returns the standard longitudinal configuration.
func DefaultConfig() Config {
	// The measurement platform issues explicit NS queries against the
	// zone's own (child) nameservers and prefers the authoritative
	// answer (§3.2), so its resolver does not chase stale parent
	// delegations; FollowDelegation stays available for the end-user
	// and ablation paths.
	resCfg := resolver.DefaultConfig()
	resCfg.FollowDelegation = false
	return Config{
		World:              scenario.DefaultWorldConfig(),
		Attacks:            scenario.DefaultAttackConfig(),
		Synth:              scenario.DefaultSynthConfig(),
		RSDoS:              rsdos.DefaultConfig(),
		Net:                simnet.DefaultParams(),
		Resolver:           resCfg,
		Pipeline:           core.DefaultConfig(),
		MeasureSeed:        42,
		Noise:              scenario.DefaultNoiseConfig(),
		FromDay:            0,
		ToDay:              clock.Day(clock.StudyDays() - 1),
		WindowMarginBefore: 6 * time.Hour,
		WindowMarginAfter:  24 * time.Hour,
	}
}

// QuickConfig returns a scaled-down configuration for tests and fast
// benches: a smaller world and schedule, same 17-month span.
func QuickConfig() Config {
	c := DefaultConfig()
	c.World.Domains = 6000
	c.World.GenericProviders = 60
	c.Attacks.TotalAttacks = 8000
	return c
}

// Study is the materialized run.
type Study struct {
	Config    Config
	World     *scenario.World
	Schedule  *scenario.Schedule
	Telescope *telescope.Telescope
	// Deprecated: always nil. It goes with Session.Obs, which the repo
	// benchmark (benchmark/) still reads.
	Obs      []rsdos.WindowObs
	Attacks  []rsdos.Attack
	Net      *simnet.Net
	Resolver *resolver.Resolver
	Engine   *openintel.Engine
	// Deprecated: nil after every run; read the days through Pipeline.DayStore.
	Agg        *nsset.Aggregator
	Pipeline   *core.Pipeline
	Classified []core.ClassifiedAttack
	Events     []core.Event
	// Report summarizes the supervised run loop: resumed, completed and
	// quarantined day-shards.
	Report RunReport
	// Metrics is the registry the run observed into (WithMetrics, or
	// a private one). It stays live after RunContext returns, so a
	// -metrics-addr endpoint keeps serving final values.
	Metrics *obs.Registry

	// session is the deterministic state the run was built from
	// (session.go); the exported World/Schedule/... fields above alias it.
	session *Session
	// beforeDay is RunContext's WithBeforeDay hook, which Finish's
	// second pass runs too.
	beforeDay func(clock.Day)
}

// Session returns the deterministic state the study was built from.
func (s *Study) Session() *Session { return s.session }
