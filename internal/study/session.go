package study

import (
	"context"
	"fmt"
	"runtime/debug"
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

// session.go factors the deterministic world-building half of a study run
// out of RunContext so any process holding the same Config can rebuild
// identical state: the generated world, attack schedule, synthesized
// telescope observations, inferred attack feed, and the simulated data
// plane (net, resolver, measurement engine). Everything here is a pure
// function of the (seeded) configuration — no I/O, no wall-clock — which
// is what makes the distributed join possible at all: a worker receives
// only the config JSON, calls NewSession, and owns a world byte-identical
// to the coordinator's. Measurement state (swept days) is NOT part of a
// Session; it flows between processes as sealed day files
// (internal/daystore).

// Session is the deterministic per-process materialization of a study
// configuration: everything up to — but excluding — the measurement
// sweeps. Two Sessions built from equal Configs are interchangeable.
type Session struct {
	Config    Config
	World     *scenario.World
	Schedule  *scenario.Schedule
	Telescope *telescope.Telescope
	Obs       []rsdos.WindowObs
	Attacks   []rsdos.Attack
	Net       *simnet.Net
	Resolver  *resolver.Resolver
	Engine    *openintel.Engine

	filter func(clock.Window) bool
}

// NewSession validates cfg and builds the deterministic run state. Stage
// wall-times are recorded into reg (volatile; nil disables). The context
// is checked between the generate and infer phases.
func NewSession(ctx context.Context, cfg Config, reg *obs.Registry) (*Session, error) {
	if err := Validate(cfg); err != nil {
		return nil, err
	}
	stage := stageTimer(reg)
	sess := &Session{Config: cfg}

	t0 := time.Now()
	sess.World = scenario.GenerateWorld(cfg.World)
	sess.Schedule = scenario.GenerateSchedule(cfg.Attacks, sess.World)
	sess.Telescope = telescope.NewUCSD()
	sess.Obs = scenario.SynthesizeObs(cfg.Synth, sess.World, sess.Schedule.Sched, sess.Telescope)
	if cfg.IncludeNoise {
		sess.Obs = append(sess.Obs, scenario.SynthesizeNoise(cfg.Noise, sess.Telescope)...)
	}
	stage("generate", t0)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t0 = time.Now()
	sess.Attacks = rsdos.Infer(cfg.RSDoS, sess.Obs)
	stage("infer", t0)

	sess.Net = simnet.New(cfg.Net, sess.World.DB, sess.Schedule.Sched, sess.Schedule.Blackouts...)
	sess.Resolver = resolver.New(cfg.Resolver, sess.World.DB, sess.Net)
	sess.Engine = openintel.NewEngine(sess.World.DB, sess.Resolver, cfg.MeasureSeed)
	sess.filter = sess.windowFilter()
	return sess, nil
}

// windowFilter keeps per-window metrics only around attacks on NS-recorded
// IPs (plus margins), bounding aggregator memory over the 17-month run.
func (sess *Session) windowFilter() func(clock.Window) bool {
	before := clock.Window(sess.Config.WindowMarginBefore / clock.WindowDur)
	after := clock.Window(sess.Config.WindowMarginAfter / clock.WindowDur)
	var spans [][2]clock.Window // first and last kept window per attack
	for _, a := range sess.Attacks {
		if _, ok := sess.World.DB.NameserverByAddr(a.Victim); ok {
			spans = append(spans, [2]clock.Window{a.StartWindow - before, a.EndWindow + after})
		}
	}
	return newWindowSet(spans).has
}

// windowSet is a set of windows as one bit per window of [lo, lo +
// 64·len(bits)): the sweep asks it once per record.
type windowSet struct {
	lo   clock.Window
	bits []uint64
}

// newWindowSet returns the union of the spans, each a first and a last
// window (first ≤ last), both included.
func newWindowSet(spans [][2]clock.Window) *windowSet {
	if len(spans) == 0 {
		return &windowSet{}
	}
	lo, hi := spans[0][0], spans[0][1]
	for _, sp := range spans {
		lo, hi = min(lo, sp[0]), max(hi, sp[1])
	}
	s := &windowSet{lo: lo, bits: make([]uint64, (hi-lo)/64+1)}
	for _, sp := range spans {
		for w := sp[0]; w <= sp[1]; w++ {
			i := uint64(w - lo)
			s.bits[i/64] |= 1 << (i % 64)
		}
	}
	return s
}

// has reports whether w is in the set; a window outside [lo, hi] is not.
func (s *windowSet) has(w clock.Window) bool {
	i := uint64(w - s.lo) // a window below lo wraps past every index
	return i/64 < uint64(len(s.bits)) && s.bits[i/64]&(1<<(i%64)) != 0
}

// NewAggregator returns an empty aggregator over the engine's NSSet table
// (so a sweep adds to it by ID, and two of them exchange whole days),
// wired with the session's retained-window filter — the only aggregator
// shape whose merges and sealed days are interchangeable across processes
// of the same config.
func (sess *Session) NewAggregator() *nsset.Aggregator {
	a := nsset.NewAggregatorOver(sess.Engine.NSSetTable())
	a.SetWindowFilter(sess.filter)
	return a
}

// NewStudy returns the Study shell of a run over this session, observing
// into reg: the session's deterministic state under the Study's exported
// fields. The run fills in Pipeline, Classified, Events and Report.
func (sess *Session) NewStudy(reg *obs.Registry) *Study {
	return &Study{
		Config:    sess.Config,
		World:     sess.World,
		Schedule:  sess.Schedule,
		Telescope: sess.Telescope,
		Obs:       sess.Obs,
		Attacks:   sess.Attacks,
		Net:       sess.Net,
		Resolver:  sess.Resolver,
		Engine:    sess.Engine,
		Metrics:   reg,
		session:   sess,
	}
}

// SweepFailure is why one sweep attempt produced no day.
type SweepFailure struct {
	// Reason is "panic: ..." or "watchdog: ...".
	Reason string
	// Stack is the goroutine stack at the panic (empty for the watchdog).
	Stack string
	// Retryable is false for the watchdog: re-running a stuck sweep would
	// just double the stall.
	Retryable bool
}

// SweepDayAttempt is one isolated sweep of one day into a private
// aggregator — into when the caller recycles one (Session.NewAggregator's,
// empty), a fresh one when into is nil — and a private metric registry,
// returned as the aggregator and the registry's snapshot (the
// deterministic study.sweep.* metrics). Panics — in the beforeDay hook or
// anywhere inside the engine/resolver/data plane — are captured with
// their stack instead of crashing the process; what the attempt counted is
// discarded with the aggregator, keeping retries exactly-once. A nil
// aggregator without a failure means ctx was cancelled. Unless the attempt
// returns its aggregator the caller must let go of into: it is partly
// filled, and an attempt the caller gave up on may still be writing to it.
// This is the unit of work a distributed sweep worker executes
// per assignment; both run modes hand its failures to the same Ledger, so
// a day that panics remotely quarantines with the same Reason bytes as
// one that panics locally.
func (sess *Session) SweepDayAttempt(ctx context.Context, day clock.Day, into *nsset.Aggregator, beforeDay func(clock.Day)) (agg *nsset.Aggregator, sweep obs.Snapshot, fail *SweepFailure) {
	defer func() {
		if r := recover(); r != nil {
			agg, sweep = nil, obs.Snapshot{}
			fail = &SweepFailure{
				Reason:    fmt.Sprintf("panic: %v", r),
				Stack:     string(debug.Stack()),
				Retryable: true,
			}
		}
	}()
	if beforeDay != nil {
		beforeDay(day)
	}
	if into == nil {
		into = sess.NewAggregator()
	}
	var counts sweepCounts
	if err := sess.Engine.RunDayContext(ctx, day, into, counts.observe); err != nil {
		return nil, obs.Snapshot{}, nil
	}
	return into, counts.snapshot(), nil
}

// NewPipeline builds the core join pipeline over the measured days with
// the session's standard wiring (pipeline config, census, topology, open
// resolvers, the engine's per-domain NSSet keys) plus any extra engine
// options, and applies the quarantined-day fallback set. Both the
// in-process join and every distributed join participant build their
// pipeline here, over sealed days, which is what pins their emission
// bytes to each other.
func (sess *Session) NewPipeline(days core.DayStore, quarantined []clock.Day, reg *obs.Registry, extra ...core.Option) *core.Pipeline {
	pipeOpts := []core.Option{
		core.WithConfig(sess.Config.Pipeline),
		core.WithDayStore(days),
		core.WithCensus(sess.World.Census),
		core.WithTopology(sess.World.Topo),
		core.WithOpenResolvers(sess.World.OpenRes),
		// Reuse the measurement engine's per-domain NSSet keys so the
		// join index build skips recomputing them from the DB.
		core.WithDomainNSSets(sess.Engine.DomainNSSets()),
		core.WithMetrics(reg),
	}
	pipeOpts = append(pipeOpts, extra...)
	p := core.NewPipeline(sess.World.DB, pipeOpts...)
	if len(quarantined) > 0 {
		p.SetQuarantinedDays(quarantined)
	}
	return p
}
