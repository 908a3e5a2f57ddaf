package study

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"dnsddos/internal/attacksim"
	"dnsddos/internal/clock"
	"dnsddos/internal/core"
	"dnsddos/internal/netx"
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
// is what makes the distributed sweep possible at all: a worker receives
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

	filter func(nsset.ID, clock.Window) bool
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
	if err := sess.buildFeed(ctx, stage, t0); err != nil {
		return nil, err
	}

	sess.Net = simnet.New(cfg.Net, sess.World.DB, sess.Schedule.Sched, sess.Schedule.Blackouts...)
	sess.Resolver = resolver.New(cfg.Resolver, sess.World.DB, sess.Net)
	sess.Engine = openintel.NewEngine(sess.World.DB, sess.Resolver, cfg.MeasureSeed)
	sess.filter = sess.windowFilter()
	return sess, nil
}

// buildFeed synthesizes the telescope feed into sess.Obs and infers
// sess.Attacks from it. Without noise the inference runs on a second
// goroutine while synthesis still draws (foldBehind), and what is left
// once the feed is whole is folded here. Noise can land in any window,
// below any watermark synthesis publishes, so with noise the feed is
// inferred once it is whole. The generate stage ends when the feed is
// drawn, the infer stage when its attacks are ready.
func (sess *Session) buildFeed(ctx context.Context, stage func(string, time.Time), t0 time.Time) error {
	cfg := sess.Config
	synthesize := func(progress func([]rsdos.WindowObs, clock.Window)) []rsdos.WindowObs {
		feed := scenario.SynthesizeObs(cfg.Synth, sess.World, sess.Schedule.Sched, sess.Telescope, progress)
		if cfg.IncludeNoise {
			feed = append(feed, scenario.SynthesizeNoise(cfg.Noise, sess.Telescope)...)
		}
		stage("generate", t0)
		t0 = time.Now()
		return feed
	}
	var fold *rsdos.Fold
	if specs := sess.Schedule.Sched.Specs(); cfg.IncludeNoise || len(specs) == 0 {
		sess.Obs = synthesize(nil)
	} else {
		fold = rsdos.NewFold(cfg.RSDoS, clock.WindowOf(specs[0].Start), lastWindow(specs))
		sess.Obs = foldBehind(fold, synthesize)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if fold == nil {
		sess.Attacks = rsdos.Infer(cfg.RSDoS, sess.Obs)
	} else {
		fold.Add(sess.Obs)
		sess.Attacks = fold.Finish()
	}
	stage("infer", t0)
	return nil
}

// lastWindow returns the last window any component of the schedule is
// active in. With the first component's start window (the schedule is in
// start order) it bounds every observation the schedule can give.
func lastWindow(specs []attacksim.Spec) clock.Window {
	last := clock.WindowOf(specs[0].Start)
	for i := range specs {
		last = max(last, clock.WindowOf(specs[i].End.Add(-1)))
	}
	return last
}

// foldBehind calls synthesize with a progress callback that has fold take
// each published feed prefix on a helper goroutine: link its new
// observations, fold the windows below its watermark. Only the latest
// prefix and watermark matter — each supersedes the one before — so
// publishing never waits: it stores them and wakes the helper if it is
// idle. foldBehind returns the feed once the helper has taken the last
// prefix it was handed and exited; the fold is the caller's again. The
// helper is joined on every return path, a panic in synthesize included,
// and a panic on the helper is re-raised here, on the caller's goroutine:
// left on the helper it would take the process down past every recover
// of the caller's.
func foldBehind(fold *rsdos.Fold, synthesize func(progress func([]rsdos.WindowObs, clock.Window)) []rsdos.WindowObs) []rsdos.WindowObs {
	var (
		mu       sync.Mutex
		feed     []rsdos.WindowObs
		closed   clock.Window // no observation still to come lies below it
		panicked any
	)
	wake, done := make(chan struct{}, 1), make(chan struct{})
	go func() {
		defer close(done)
		defer func() { panicked = recover() }()
		for range wake {
			mu.Lock()
			f, c := feed, closed
			mu.Unlock()
			fold.Add(f)
			fold.Close(c)
		}
	}()
	defer func() {
		close(wake)
		<-done
		if panicked != nil {
			panic(panicked)
		}
	}()
	return synthesize(func(f []rsdos.WindowObs, c clock.Window) {
		mu.Lock()
		feed, closed = f, c
		mu.Unlock()
		select {
		case wake <- struct{}{}:
		default: // the helper is woken already and will read the latest
		}
	})
}

// windowFilter is the join's demand (DESIGN §3.13): the (NSSet, window)
// pairs whose per-window metrics the join and the Fig. 2/3 series read.
// Each attack on a nameserver address keeps, for every NSSet of the
// engine's table whose key contains the victim — the NSSets
// core.NSIndex.NSSetsContaining joins it over — its windows from
// WindowMarginBefore ahead of its first to WindowMarginAfter past its
// last. Every other pair keeps only its day baseline.
func (sess *Session) windowFilter() func(nsset.ID, clock.Window) bool {
	before := clock.Window(sess.Config.WindowMarginBefore / clock.WindowDur)
	after := clock.Window(sess.Config.WindowMarginAfter / clock.WindowDur)
	return newDemand(sess.Engine.NSSetTable(), sess.Attacks, before, after).has
}

// demand is a set of (NSSet ID, window) pairs: per ID, one bitset over
// that ID's own first … last kept window, every bitset cut from one
// array. The sweep asks it once per record, from every sweep worker.
type demand struct {
	ids  []idSpan // by ID
	bits []uint64
}

// idSpan is one ID's kept windows: bit i of bits[off:] is window lo + i,
// for i < n. An ID with no span has n = 0.
type idSpan struct {
	lo     clock.Window
	off, n uint32
}

// newDemand returns the demand of attacks over tab's NSSets: every NSSet
// containing an attack's victim keeps the attack's windows from before
// ahead of its first to after past its last. It allocates the same six
// objects whatever the number of NSSets and attacks: the victims are
// grouped by a counting sort over the sorted member addresses, not a map
// of slices.
func newDemand(tab *nsset.Interner, attacks []rsdos.Attack, before, after clock.Window) *demand {
	n := tab.Len()
	// every member address of every NSSet, sorted and distinct
	size := 0
	for id := 0; id < n; id++ {
		size += tab.Key(nsset.ID(id)).Size()
	}
	addrs := make([]netx.Addr, 0, size)
	for id := 0; id < n; id++ {
		k := tab.Key(nsset.ID(id))
		for i := 0; i < k.Size(); i++ {
			addrs = append(addrs, k.Addr(i))
		}
	}
	slices.Sort(addrs)
	addrs = slices.Compact(addrs)

	// Each address's attack spans, in one array: first[j+2] counts
	// address j's attacks; the prefix sums make first[j+1] its write
	// cursor, which the fill leaves at the end of j's spans, so that
	// spans[first[j]:first[j+1]] are address j's.
	first := make([]int32, len(addrs)+2)
	for i := range attacks {
		if j, ok := slices.BinarySearch(addrs, attacks[i].Victim); ok {
			first[j+2]++
		}
	}
	for j := 2; j < len(first); j++ {
		first[j] += first[j-1]
	}
	spans := make([][2]clock.Window, first[len(first)-1])
	for i := range attacks {
		a := &attacks[i]
		if j, ok := slices.BinarySearch(addrs, a.Victim); ok {
			spans[first[j+1]] = [2]clock.Window{a.StartWindow - before, a.EndWindow + after}
			first[j+1]++
		}
	}
	// memberSpans returns the spans of the i-th member of k.
	memberSpans := func(k nsset.Key, i int) [][2]clock.Window {
		j, _ := slices.BinarySearch(addrs, k.Addr(i))
		return spans[first[j]:first[j+1]]
	}

	d := &demand{ids: make([]idSpan, n)}
	words := 0
	for id := range d.ids {
		k := tab.Key(nsset.ID(id))
		lo, hi := clock.Window(math.MaxInt64), clock.Window(math.MinInt64)
		for i := 0; i < k.Size(); i++ {
			for _, sp := range memberSpans(k, i) {
				lo, hi = min(lo, sp[0]), max(hi, sp[1])
			}
		}
		if lo <= hi {
			d.ids[id] = idSpan{lo: lo, off: uint32(words), n: uint32(hi - lo + 1)}
			words += int(hi-lo)/64 + 1
		}
	}
	d.bits = make([]uint64, words)
	for id, s := range d.ids {
		k := tab.Key(nsset.ID(id))
		for i := 0; i < k.Size(); i++ {
			for _, sp := range memberSpans(k, i) {
				setRange(d.bits[s.off:], uint64(sp[0]-s.lo), uint64(sp[1]-s.lo))
			}
		}
	}
	return d
}

// setRange sets bits from … to, both included.
func setRange(bits []uint64, from, to uint64) {
	for i := from / 64; i <= to/64; i++ {
		m := ^uint64(0)
		if i == from/64 {
			m <<= from % 64
		}
		if i == to/64 {
			m &= ^uint64(0) >> (63 - to%64)
		}
		bits[i] |= m
	}
}

// has reports whether the demand holds (id, w).
func (d *demand) has(id nsset.ID, w clock.Window) bool {
	if int(id) >= len(d.ids) {
		return false
	}
	s := d.ids[id]
	i := uint64(w - s.lo) // a window below lo wraps past every index
	return i < uint64(s.n) && d.bits[uint64(s.off)+i/64]&(1<<(i%64)) != 0
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
// options, and applies the quarantined-day fallback set. Every run mode
// builds its pipeline here, over sealed days (Study.Finish), which is
// what pins their emission bytes to each other.
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
