package study

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"slices"
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
// identical state: the generated world, attack schedule, inferred attack
// feed (the telescope observations it is folded from are not kept), and
// the simulated data plane (net, resolver, measurement engine). Everything here is a pure
// function of the (seeded) configuration — no I/O, no wall-clock — so a
// resumed run, or a re-join over sealed days, rebuilds a world
// byte-identical to the first run's. Measurement state (swept days) is
// NOT part of a Session; it is kept as sealed day files
// (internal/daystore).

// Session is the deterministic per-process materialization of a study
// configuration: everything up to — but excluding — the measurement
// sweeps. Two Sessions built from equal Configs are interchangeable.
type Session struct {
	Config    Config
	World     *scenario.World
	Schedule  *scenario.Schedule
	Telescope *telescope.Telescope
	// Deprecated: always nil; the feed is folded as it is drawn, never
	// held. It remains because the repo benchmark (benchmark/) reads it.
	Obs      []rsdos.WindowObs
	Attacks  []rsdos.Attack
	Net      *simnet.Net
	Resolver *resolver.Resolver
	// Engine sweeps the session's day demand: on each day, only the
	// domains whose NSSet the join can read that day (buildDemand).
	// Engine.Restrict(nil) is the sweep of every domain.
	Engine *openintel.Engine

	// index is the join's nameserver index over the engine's NSSet
	// table, built once and read by every pipeline and by the demand.
	index *core.NSIndex
	// windows and days are the join's demand (buildDemand), read-only
	// once NewSession returns.
	windows, days *demand
}

// NewSession validates cfg and builds the deterministic run state. Stage
// wall-times and the feed's size are recorded into reg (volatile; nil
// disables). The context is checked between the generate and infer phases.
func NewSession(ctx context.Context, cfg Config, reg *obs.Registry) (*Session, error) {
	if err := Validate(cfg); err != nil {
		return nil, err
	}
	sess := &Session{Config: cfg}

	t0 := time.Now()
	sess.World = scenario.GenerateWorld(cfg.World)
	sess.Schedule = scenario.GenerateSchedule(cfg.Attacks, sess.World)
	sess.Telescope = telescope.NewUCSD()
	if err := sess.buildFeed(ctx, reg, t0); err != nil {
		return nil, err
	}

	sess.Net = simnet.New(cfg.Net, sess.World.DB, sess.Schedule.Sched, sess.Schedule.Blackouts...)
	sess.Resolver = resolver.New(cfg.Resolver, sess.World.DB, sess.Net)
	eng := openintel.NewEngine(sess.World.DB, sess.Resolver, cfg.MeasureSeed)
	sess.index = core.NewNSIndex(eng.NSSetTable(), eng.DomainNSSets())
	sess.buildDemand(eng.NSSetTable().Len())
	sess.Engine = eng.Restrict(sess.sweepsDay)
	return sess, nil
}

// Feed draws the session's telescope feed, the curated RSDoS feed the
// study joins, handing each observation to emit in feed order: what
// scenario.Synthesize draws from the schedule, with the IBR noise, when
// the configuration includes it, merged in below each watermark. advance
// is handed, now and then, a window no later observation lies below; the
// noise below it is emitted first, so every window's noise
// follows that window's attack observations. An observation and its Ports
// are valid only for the duration of the call. The batch study folds
// this feed as it is drawn (buildFeed); the stream folds it as it is
// delivered (cmd/streamjoin).
func (sess *Session) Feed(emit func(*rsdos.WindowObs), advance func(clock.Window)) {
	cfg := sess.Config
	var noise []rsdos.WindowObs
	if cfg.IncludeNoise {
		noise = scenario.SynthesizeNoise(cfg.Noise, sess.Telescope)
		slices.SortStableFunc(noise, func(a, b rsdos.WindowObs) int { return cmp.Compare(a.Window, b.Window) })
	}
	emitNoise := func(below clock.Window) {
		for len(noise) > 0 && noise[0].Window < below {
			emit(&noise[0])
			noise = noise[1:]
		}
	}
	scenario.Synthesize(cfg.Synth, sess.World, sess.Schedule.Sched, sess.Telescope, emit, func(w clock.Window) {
		emitNoise(w)
		advance(w)
	})
	emitNoise(math.MaxInt64)
}

// buildFeed infers sess.Attacks from the session's feed without holding
// it: the inference folds the windows the feed has closed on a second
// goroutine while synthesis still draws (foldFeed), and folds what is
// left once synthesis returns. The generate stage ends when the feed is
// drawn, the infer stage when its attacks are ready. The feed's
// observation count and the most runs the fold held open at once are
// recorded beside the stage times, volatile like them.
func (sess *Session) buildFeed(ctx context.Context, reg *obs.Registry, t0 time.Time) error {
	stage := stageTimer(reg)
	fold := rsdos.NewFold(sess.Config.RSDoS)
	n := foldFeed(fold, func(emit func(*rsdos.WindowObs), advance func(clock.Window)) {
		sess.Feed(emit, advance)
		stage("generate", t0)
		t0 = time.Now()
	})
	if err := ctx.Err(); err != nil {
		return err
	}
	sess.Attacks = fold.Finish()
	stage("infer", t0)
	reg.Gauge("study.feed.observations", obs.Volatile()).Set(int64(n))
	reg.Gauge("study.feed.peak_runs", obs.Volatile()).Set(int64(fold.PeakOpen()))
	return nil
}

// feedBlockLen is how many observations one feedBlock carries.
const feedBlockLen = 1024

// feedBlock is a run of the feed on its way from synthesis to the fold:
// up to feedBlockLen observations, their Ports cut from ports (never
// grown: a block whose ports would overflow is handed over as if full),
// and the watermark synthesis had published when the block was handed
// over.
type feedBlock struct {
	obs    []rsdos.WindowObs
	ports  []rsdos.PortCount
	closed clock.Window
}

// foldFeed runs synthesize on the caller's goroutine and has fold take
// what it emits on a helper goroutine, and returns how many observations
// the feed held. Synthesis copies the observations into blocks from a set
// of three it recycles, and hands each one over when it cannot hold the
// next observation or its ports, with the latest watermark advance gave
// it; the helper has fold take the block's observations, closes the
// windows below the watermark and hands the block back. Once synthesize
// returns, the helper takes the last block and exits; the fold is the
// caller's again. The helper is joined on every return path, a panic in
// synthesize included, and a panic on the helper is re-raised here, on
// the caller's goroutine: left on the helper it would take the process
// down past every recover of the caller's. After a panic the helper hands
// every block straight back, so synthesis never waits for one.
func foldFeed(fold *rsdos.Fold, synthesize func(emit func(*rsdos.WindowObs), advance func(clock.Window))) int {
	n := 0
	// both channels hold every block, so no send waits; synthesis waits
	// on empty only while the helper, which runs until full is closed,
	// holds all three
	const blocks = 3
	full, empty := make(chan *feedBlock, blocks), make(chan *feedBlock, blocks)
	for range blocks {
		empty <- &feedBlock{obs: make([]rsdos.WindowObs, 0, feedBlockLen), ports: make([]rsdos.PortCount, 0, 2*feedBlockLen)}
	}
	var panicked any
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() {
			if panicked = recover(); panicked != nil {
				for b := range full {
					empty <- b
				}
			}
		}()
		for b := range full {
			for i := range b.obs {
				fold.Take(&b.obs[i])
			}
			fold.Close(b.closed)
			empty <- b
		}
	}()
	defer func() {
		close(full)
		<-done
		if panicked != nil {
			panic(panicked)
		}
	}()

	var b *feedBlock
	closed := clock.Window(math.MinInt64)
	emit := func(o *rsdos.WindowObs) {
		n++
		if b != nil && (len(b.obs) == feedBlockLen || len(b.ports)+len(o.Ports) > cap(b.ports)) {
			b.closed = closed
			full <- b
			b = nil
		}
		if b == nil {
			b = <-empty
			b.obs, b.ports = b.obs[:0], b.ports[:0]
		}
		c := *o
		b.ports = append(b.ports, o.Ports...)
		c.Ports = b.ports[len(b.ports)-len(o.Ports) : len(b.ports) : len(b.ports)]
		b.obs = append(b.obs, c)
	}
	synthesize(emit, func(w clock.Window) { closed = w })
	if b != nil {
		b.closed = closed
		full <- b
	}
	return n
}

// demandDaysBack are the day offsets, from a demanded window's day, of
// the day rows the join reads for an attack whose windows are demanded:
// the window's own day (its windows, and the same-day snapshot of the
// same_day_snapshot ablation), the day before (the §4.2 snapshot and the
// Eq. 1 baseline) and the week before (report's week_before_baseline
// ablation). buildDemand adds the configured Pipeline.BaselineDaysBack.
var demandDaysBack = [...]clock.Day{0, 1, 7}

// buildDemand is the join's demand (DESIGN §3.13): the (NSSet, window)
// pairs whose per-window metrics the join and the Fig. 2/3 series read,
// and the (NSSet, day) rows the sweep measures. Each attack on a
// nameserver address demands, for every NSSet of the engine's table
// containing the victim — the NSSets the session's index joins it over —
// its windows from WindowMarginBefore ahead of its first to
// WindowMarginAfter past its last, and each such window's day and the
// days demandDaysBack and BaselineDaysBack before it. No other day row is
// measured; a demanded row keeps its windows only where they are
// demanded. n is the size of the engine's table.
func (sess *Session) buildDemand(n int) {
	before := clock.Window(sess.Config.WindowMarginBefore / clock.WindowDur)
	after := clock.Window(sess.Config.WindowMarginAfter / clock.WindowDur)
	backs := demandDaysBack[:]
	if b := clock.Day(sess.Config.Pipeline.BaselineDaysBack); b > 0 && !slices.Contains(backs, b) {
		backs = append(backs[:len(backs):len(backs)], b)
	}
	sess.windows, sess.days = newDemand(sess.index, n, sess.Attacks, before, after, backs)
}

// demand is a set of (NSSet ID, unit) pairs, the unit a window or a day:
// per ID, one bitset over that ID's own first … last unit, every bitset
// cut from one array. The sweep asks the day demand once per domain and
// the window demand once per record, from every sweep worker.
type demand struct {
	ids  []idSpan // by ID
	bits []uint64
}

// idSpan is one ID's units: bit i of bits[off:] is unit lo + i, for
// i < n. An ID with no span has n = 0.
type idSpan struct {
	lo     int64
	off, n uint32
}

// newDemand returns the window and day demands of attacks over the n
// NSSets of ix's table: every NSSet containing an attack's victim
// (ix.NSSetsContaining, the join's own rule) keeps the attack's windows
// from before ahead of its first to after past its last, and each kept
// window's day and the days backs before it. It allocates the same six
// objects whatever the number of NSSets and attacks.
func newDemand(ix *core.NSIndex, n int, attacks []rsdos.Attack, before, after clock.Window, backs []clock.Day) (windows, days *demand) {
	windows, days = &demand{ids: make([]idSpan, n)}, &demand{ids: make([]idSpan, n)}
	// the first pass spans each ID's units, the second sets their bits
	for _, set := range [2]bool{false, true} {
		for i := range attacks {
			a := &attacks[i]
			lo, hi := a.StartWindow-before, a.EndWindow+after
			for _, id := range ix.NSSetsContaining(a.Victim) {
				windows.add(set, id, int64(lo), int64(hi))
				for _, back := range backs {
					days.add(set, id, int64(lo.Day()-back), int64(hi.Day()-back))
				}
			}
		}
		if !set {
			windows.cut()
			days.cut()
		}
	}
	return windows, days
}

// add widens id's span to hold lo … hi or, once the bits are cut, sets
// them.
func (d *demand) add(set bool, id nsset.ID, lo, hi int64) {
	s := &d.ids[id]
	if set {
		setRange(d.bits[s.off:], uint64(lo-s.lo), uint64(hi-s.lo))
		return
	}
	if s.n > 0 {
		lo, hi = min(lo, s.lo), max(hi, s.lo+int64(s.n)-1)
	}
	s.lo, s.n = lo, uint32(hi-lo+1)
}

// cut gives every spanned ID its words of one bit array.
func (d *demand) cut() {
	words := 0
	for id := range d.ids {
		if s := &d.ids[id]; s.n > 0 {
			s.off = uint32(words)
			words += int(s.n-1)/64 + 1
		}
	}
	d.bits = make([]uint64, words)
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

// has reports whether the demand holds (id, x).
func (d *demand) has(id nsset.ID, x int64) bool {
	if int(id) >= len(d.ids) {
		return false
	}
	s := d.ids[id]
	i := uint64(x - s.lo) // a unit below lo wraps past every index
	return i < uint64(s.n) && d.bits[uint64(s.off)+i/64]&(1<<(i%64)) != 0
}

// keepsWindow is the window demand: the aggregators' window filter.
func (sess *Session) keepsWindow(id nsset.ID, w clock.Window) bool {
	return sess.windows.has(id, int64(w))
}

// sweepsDay is the day demand: the session engine's sweep demand.
func (sess *Session) sweepsDay(id nsset.ID, d clock.Day) bool {
	return sess.days.has(id, int64(d))
}

// NewAggregator returns an empty aggregator over the engine's NSSet table
// (so a sweep adds to it by ID, and two of them exchange whole days),
// wired with the session's retained-window filter — the only aggregator
// shape whose merges and sealed days are interchangeable across runs of
// the same config.
func (sess *Session) NewAggregator() *nsset.Aggregator {
	a := nsset.NewAggregatorOver(sess.Engine.NSSetTable())
	a.SetWindowFilter(sess.keepsWindow)
	return a
}

// newStudy returns the Study shell of a run over this session, observing
// into reg: the session's deterministic state under the Study's exported
// fields. The run fills in Pipeline, Classified, Events and Report.
func (sess *Session) newStudy(reg *obs.Registry) *Study {
	return &Study{
		Config:    sess.Config,
		World:     sess.World,
		Schedule:  sess.Schedule,
		Telescope: sess.Telescope,
		Attacks:   sess.Attacks,
		Net:       sess.Net,
		Resolver:  sess.Resolver,
		Engine:    sess.Engine,
		Metrics:   reg,
		session:   sess,
	}
}

// sweepFailure is why one sweep attempt produced no day.
type sweepFailure struct {
	// Reason is "panic: ..." or "watchdog: ...".
	Reason string
	// Stack is the goroutine stack at the panic (empty for the watchdog).
	Stack string
	// Retryable is false for the watchdog: re-running a stuck sweep would
	// just double the stall.
	Retryable bool
}

// sweepDayAttempt is one isolated sweep of one day into a private
// aggregator — into when the caller recycles one (Session.NewAggregator's,
// empty), a fresh one when into is nil — returned with the day's sweep
// counts. Panics — in the beforeDay hook or anywhere inside the
// engine/resolver/data plane — are captured with their stack instead of
// crashing the process; what the attempt counted is discarded with the
// aggregator, keeping retries exactly-once. A nil aggregator without a
// failure means ctx was cancelled. Unless the attempt returns its
// aggregator the caller must let go of into: it is partly filled, and an
// attempt the caller gave up on may still be writing to it.
func (sess *Session) sweepDayAttempt(ctx context.Context, day clock.Day, into *nsset.Aggregator, beforeDay func(clock.Day)) (agg *nsset.Aggregator, counts sweepCounts, fail *sweepFailure) {
	defer func() {
		if r := recover(); r != nil {
			agg, counts, fail = nil, sweepCounts{}, panicFailure(r)
		}
	}()
	if beforeDay != nil {
		beforeDay(day)
	}
	if into == nil {
		into = sess.NewAggregator()
	}
	if err := sess.Engine.RunDayContext(ctx, day, into, counts.observe); err != nil {
		return nil, sweepCounts{}, nil
	}
	counts.Skipped = int64(len(sess.World.DB.Domains)) - counts.measured()
	return into, counts, nil
}

// panicFailure is the failure of a sweep attempt that panicked with r,
// with the panicking goroutine's stack.
func panicFailure(r any) *sweepFailure {
	return &sweepFailure{Reason: fmt.Sprintf("panic: %v", r), Stack: string(debug.Stack()), Retryable: true}
}

// resweepDay sweeps a done day again for the second pass (Study.widen)
// into a fresh aggregator: first the day's own demand, which makes the
// first sweep's records again, then the domains of the NSSets added
// holds, counted apart. Every domain the two leave out is base's
// Skipped. A panic is captured as in sweepDayAttempt; a nil aggregator
// without a failure means ctx was cancelled.
func (sess *Session) resweepDay(ctx context.Context, day clock.Day, added []bool, beforeDay func(clock.Day)) (agg *nsset.Aggregator, base, extra sweepCounts, fail *sweepFailure) {
	defer func() {
		if r := recover(); r != nil {
			agg, base, extra, fail = nil, sweepCounts{}, sweepCounts{}, panicFailure(r)
		}
	}()
	if beforeDay != nil {
		beforeDay(day)
	}
	agg = sess.NewAggregator()
	widened := sess.Engine.Restrict(func(id nsset.ID, _ clock.Day) bool { return added[id] })
	if sess.Engine.RunDayContext(ctx, day, agg, base.observe) != nil || widened.RunDayContext(ctx, day, agg, extra.observe) != nil {
		return nil, sweepCounts{}, sweepCounts{}, nil
	}
	base.Skipped = int64(len(sess.World.DB.Domains)) - base.measured() - extra.measured()
	return agg, base, extra, nil
}

// fallbackDay is one day the second pass sweeps again: the NSSets it adds
// to the day's own demand, by ID.
type fallbackDay struct {
	day   clock.Day
	added []bool
}

// fallbackDemand returns, ascending, the days of the run's range that the
// join reads in place of a quarantined day (core.MeasurableDay), each with
// the NSSets the quarantined days it stands for demand and it does not;
// a day that would add none is left out. A fallback that is itself
// quarantined or before the run's range reads nothing, in the sweep of
// every domain too, and is left out.
func (sess *Session) fallbackDemand(quarantined []clock.Day) []fallbackDay {
	q := make(map[clock.Day]bool, len(quarantined))
	for _, d := range quarantined {
		q[d] = true
	}
	n := sess.Engine.NSSetTable().Len()
	var out []fallbackDay
	for _, d := range quarantined {
		fb := core.MeasurableDay(d, q)
		if q[fb] || fb < sess.Config.FromDay {
			continue
		}
		i, found := slices.BinarySearchFunc(out, fb, func(f fallbackDay, day clock.Day) int { return cmp.Compare(f.day, day) })
		if !found {
			out = slices.Insert(out, i, fallbackDay{day: fb, added: make([]bool, n)})
		}
		for id := range out[i].added {
			if sess.sweepsDay(nsset.ID(id), d) && !sess.sweepsDay(nsset.ID(id), fb) {
				out[i].added[id] = true
			}
		}
	}
	return slices.DeleteFunc(out, func(f fallbackDay) bool { return !slices.Contains(f.added, true) })
}

// NewPipeline builds the core join pipeline over the measured days with
// the session's standard wiring (pipeline config, census, topology, open
// resolvers, the session's nameserver index) plus any extra engine
// options, and applies the quarantined-day fallback set. A run builds its
// pipeline here, over sealed days (Study.finish), and so does every
// re-join over them, which is what pins their emission bytes to each
// other.
func (sess *Session) NewPipeline(days core.DayStore, quarantined []clock.Day, reg *obs.Registry, extra ...core.Option) *core.Pipeline {
	pipeOpts := []core.Option{
		core.WithConfig(sess.Config.Pipeline),
		core.WithDayStore(days),
		core.WithCensus(sess.World.Census),
		core.WithTopology(sess.World.Topo),
		core.WithOpenResolvers(sess.World.OpenRes),
		core.WithNSIndex(sess.index),
		core.WithMetrics(reg),
	}
	pipeOpts = append(pipeOpts, extra...)
	p := core.NewPipeline(sess.World.DB, pipeOpts...)
	if len(quarantined) > 0 {
		p.SetQuarantinedDays(quarantined)
	}
	return p
}
