package distjoin

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"time"

	"dnsddos/internal/checkpoint"
	"dnsddos/internal/clock"
	"dnsddos/internal/core"
	"dnsddos/internal/daystore"
	"dnsddos/internal/obs"
	"dnsddos/internal/resilience"
	"dnsddos/internal/study"
)

// coordinator.go owns the run: a single-goroutine event loop holds all
// fleet and plan state, fed by per-connection reader goroutines, a
// liveness ticker, and retry timers. Workers never share state; every
// decision — assignment, reassignment, quarantine, journaling — happens
// in the loop, which is what keeps the exactly-once bookkeeping simple
// enough to trust.

const (
	// sweepMaxAttempts mirrors the PR 3 in-process supervisor: a day-shard
	// failure (panic or lost worker) is retried once elsewhere, then the
	// day is quarantined.
	sweepMaxAttempts = 2
	// joinMaxFailures bounds *reported* join-range failures (panics);
	// ranges have no quarantine equivalent — results must be complete — so
	// a range that keeps panicking aborts the run. Lost workers do not
	// count: a range may be reassigned any number of times.
	joinMaxFailures = 2
	// defaultNumRanges is the fleet-size-independent join partition width,
	// clamped to the shard count. Finer than any plausible fleet so ranges
	// rebalance when workers come and go, deterministic so an unjournaled
	// rerun partitions identically.
	defaultNumRanges = 32

	planRecord = "join_plan.ckpt"
)

func rangeRecord(idx int) string { return fmt.Sprintf("join_range_%04d.ckpt", idx) }

// joinPlan is the journaled join partition: a resumed coordinator must
// slice shards exactly as its predecessor did or completed range records
// would describe different work.
type joinPlan struct {
	NumShards int
	NumRanges int
}

// rangeResult is the journaled output of one completed shard range.
type rangeResult struct {
	Events []core.TaggedEvent
}

// CoordOption configures a Coordinator.
type CoordOption func(*coordOptions)

type coordOptions struct {
	addr         string
	heartbeat    time.Duration
	ckptDir      string
	resume       bool
	reg          *obs.Registry
	minWork      int
	numRanges    int
	backoff      time.Duration
	suspectAfter int
	deadAfter    int
}

// WithListenAddr sets the TCP listen address (default 127.0.0.1:0).
func WithListenAddr(addr string) CoordOption {
	return func(o *coordOptions) { o.addr = addr }
}

// WithHeartbeatInterval sets the fleet heartbeat interval (default 1s).
// Suspicion and death thresholds scale with it.
func WithHeartbeatInterval(d time.Duration) CoordOption {
	return func(o *coordOptions) { o.heartbeat = d }
}

// WithCheckpointDir journals run state — completed days, the join plan,
// completed shard ranges — to dir so a killed coordinator can resume. The
// sealed day files the fleet delivers live in dir/days and the journal
// references them by content hash; without a checkpoint directory they go
// to a temporary directory that Run removes on return.
func WithCheckpointDir(dir string) CoordOption {
	return func(o *coordOptions) { o.ckptDir = dir }
}

// WithResume resumes from the journal in the checkpoint directory instead
// of starting fresh; the directory's header must match the configuration.
func WithResume(resume bool) CoordOption {
	return func(o *coordOptions) { o.resume = resume }
}

// WithMetrics publishes fleet state and imported sweep metrics into reg,
// typically one served over /metrics.json (obs.Serve).
func WithMetrics(reg *obs.Registry) CoordOption {
	return func(o *coordOptions) { o.reg = reg }
}

// WithMinWorkers holds initial dispatch until at least n workers are
// registered (default 1). It is a start gate only: once the fleet has
// reached n, a drain or death below n never stalls the run — the
// remaining workers absorb the reassigned work.
func WithMinWorkers(n int) CoordOption {
	return func(o *coordOptions) { o.minWork = n }
}

// WithSuspectAfter sets how many missed heartbeat intervals mark a
// worker suspect, reassigning its in-flight task (default 5). Must be
// >= 1 and below the dead threshold.
func WithSuspectAfter(n int) CoordOption {
	return func(o *coordOptions) { o.suspectAfter = n }
}

// WithDeadAfter sets how many missed heartbeat intervals mark a worker
// dead, forcibly disconnecting it (default 10). Must be above the
// suspect threshold.
func WithDeadAfter(n int) CoordOption {
	return func(o *coordOptions) { o.deadAfter = n }
}

// WithNumRanges overrides the join partition width (default
// min(shards, 32)); clamped to the shard count, journaled with the plan.
func WithNumRanges(n int) CoordOption {
	return func(o *coordOptions) { o.numRanges = n }
}

// Coordinator drives one distributed study run.
type Coordinator struct {
	cfg  study.Config
	opts coordOptions
	l    net.Listener
	reg  *obs.Registry
	m    fleetMetrics
	// retry paces task requeues with decorrelated jitter — the shared
	// policy layer, not a package-local constant.
	retry *resilience.RetryBudget
}

// NewCoordinator validates cfg, binds the listen socket (so Addr is
// available before Run), and prepares the fleet metrics.
func NewCoordinator(cfg study.Config, opts ...CoordOption) (*Coordinator, error) {
	if err := study.Validate(cfg); err != nil {
		return nil, err
	}
	o := coordOptions{
		addr:         "127.0.0.1:0",
		heartbeat:    time.Second,
		minWork:      1,
		backoff:      resilience.DefaultBase,
		suspectAfter: 5,
		deadAfter:    10,
	}
	for _, fn := range opts {
		fn(&o)
	}
	if o.resume && o.ckptDir == "" {
		return nil, fmt.Errorf("distjoin: WithResume requires WithCheckpointDir")
	}
	if o.suspectAfter < 1 || o.deadAfter < 1 {
		return nil, fmt.Errorf("distjoin: heartbeat thresholds must be >= 1 (suspect %d, dead %d)", o.suspectAfter, o.deadAfter)
	}
	if o.suspectAfter >= o.deadAfter {
		return nil, fmt.Errorf("distjoin: suspect threshold %d must be below dead threshold %d", o.suspectAfter, o.deadAfter)
	}
	if o.reg == nil {
		o.reg = obs.New()
	}
	l, err := net.Listen("tcp", o.addr)
	if err != nil {
		return nil, fmt.Errorf("distjoin: listening on %s: %w", o.addr, err)
	}
	retry := resilience.NewRetryBudget(0, o.backoff, resilience.DefaultCap, nil)
	return &Coordinator{cfg: cfg, opts: o, l: l, reg: o.reg, m: newFleetMetrics(o.reg), retry: retry}, nil
}

// Addr returns the coordinator's bound listen address — hand it to
// workers.
func (c *Coordinator) Addr() string { return c.l.Addr().String() }

// workerState is a fleet member's liveness classification.
type workerState int

const (
	stateLive workerState = iota
	stateSuspect
	stateDraining
)

// task is one unit of fleet work.
type task struct {
	join bool // false: day sweep; true: join range
	day  clock.Day
	rng  int
	// attempts counts failed attempts (reported panics, lost workers);
	// sweepMaxAttempts quarantines a day, joinMaxFailures aborts the run.
	attempts   int
	lastReason string
	lastStack  string
}

func (t *task) describe() string {
	if t.join {
		return fmt.Sprintf("join range %d", t.rng)
	}
	return fmt.Sprintf("day %d", int32(t.day))
}

// fleetWorker is the coordinator-side view of one connection.
type fleetWorker struct {
	id        int
	name      string
	conn      net.Conn
	wr        *wire
	outbox    chan *message
	wdone     chan struct{} // closed when the writer goroutine exits
	state     workerState
	hello     bool
	joinReady bool
	lastSeen  time.Time
	inflight  *task
	started   time.Time
}

// coordEvent is one event-loop delivery.
type coordEvent struct {
	w     *fleetWorker // non-nil for connection events
	m     *message     // non-nil for decoded frames
	err   error        // connection failure; with a nil w, a fatal local one
	conn  net.Conn     // non-nil for new connections
	retry *task        // non-nil when a backoff timer fired
	tick  bool
}

// Run executes the distributed study and returns the completed run,
// byte-identical to single-process study.RunContext over the same
// configuration. It returns early only on cancellation (the journal, if
// any, stays resumable), checkpoint I/O failure, or an unrecoverable
// plan mismatch.
func (c *Coordinator) Run(ctx context.Context) (*study.Study, error) {
	defer c.l.Close()

	sess, err := study.NewSession(ctx, c.cfg, c.reg)
	if err != nil {
		return nil, err
	}
	cfgJSON, err := json.Marshal(c.cfg)
	if err != nil {
		return nil, fmt.Errorf("distjoin: encoding config: %w", err)
	}

	st := &runState{
		c:       c,
		sess:    sess,
		cfgJSON: cfgJSON,
		evs:     make(chan coordEvent, 1024),
		workers: make(map[int]*fleetWorker),
		dayRefs: make(map[clock.Day]checkpoint.DayRef),
		ranges:  make(map[int][]core.TaggedEvent),
	}
	if c.opts.ckptDir == "" {
		if st.dayDir, err = os.MkdirTemp("", "distjoin-days-*"); err != nil {
			return nil, fmt.Errorf("distjoin: creating day directory: %w", err)
		}
		defer os.RemoveAll(st.dayDir)
	} else if err := st.openJournal(); err != nil {
		return nil, err
	}
	st.queueSweeps()

	// Accept loop: hands raw connections to the event loop.
	acceptDone := make(chan struct{})
	go func() {
		defer close(acceptDone)
		for {
			conn, err := c.l.Accept()
			if err != nil {
				return
			}
			st.evs <- coordEvent{conn: conn}
		}
	}()
	ticker := time.NewTicker(c.opts.heartbeat)
	defer ticker.Stop()
	defer st.closeAll()

	for {
		// Phase transitions and completion are checked between events so
		// every path (result, failure, worker change) funnels through one
		// place.
		if st.sweepsDone() && !st.joinStarted {
			if err := st.startJoin(ctx); err != nil {
				return nil, err
			}
		}
		if st.joinStarted && st.joinDone() {
			return st.finish(ctx)
		}
		st.schedule()
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-ticker.C:
			st.checkLiveness()
		case ev := <-st.evs:
			switch {
			case ev.conn != nil:
				st.addConn(ev.conn)
			case ev.retry != nil:
				st.enqueue(ev.retry)
			case ev.err != nil:
				if ev.w == nil {
					return nil, ev.err
				}
				st.dropWorker(ev.w, ev.err)
			case ev.m != nil:
				if err := st.handle(ev.w, ev.m); err != nil {
					return nil, err
				}
			}
		}
	}
}

// runState is the event loop's single-goroutine state.
type runState struct {
	c       *Coordinator
	sess    *study.Session
	cfgJSON []byte
	evs     chan coordEvent

	nextID  int
	workers map[int]*fleetWorker

	ckpt    *checkpoint.Dir
	pending []*task // dispatch queue, deterministic order

	// sweep phase: a completed day is a sealed file in dayDir
	// (<checkpoint>/days, or a temporary directory) and a reference to it
	// here — the coordinator's heap never holds a day's measurements.
	dayDir   string
	dayRefs  map[clock.Day]checkpoint.DayRef
	resumed  int
	complete int
	skipped  []study.SkippedDay

	// fleetStarted latches once minWorkers registered simultaneously;
	// dispatch is gated only until then.
	fleetStarted bool

	// join phase
	joinStarted bool
	plan        joinPlan
	loadedPlan  bool
	days        *daystore.Set // the pipeline's day store, over dayDir
	pipe        *core.Pipeline
	// setup lists the accepted days ascending; fixed at startJoin and
	// read-only afterwards, so connection writers stream from it freely.
	setup  []daystore.SealedFile
	ranges map[int][]core.TaggedEvent
}

// openJournal opens (or creates) the checkpoint directory and loads every
// completed record: day references, the join plan, and completed ranges.
// A referenced day file is hash-verified before its day counts as done; a
// mismatch refuses the resume with daystore.ErrCorrupt.
func (st *runState) openJournal() error {
	o := st.c.opts
	st.dayDir = filepath.Join(o.ckptDir, "days")
	hash, err := study.ConfigHash(st.c.cfg)
	if err != nil {
		return err
	}
	hdr := checkpoint.Header{ConfigHash: hash, Seed: st.c.cfg.MeasureSeed}
	if !o.resume {
		if st.ckpt, err = checkpoint.Create(o.ckptDir, hdr); err != nil {
			return err
		}
		return daystore.Clear(st.dayDir)
	}
	if st.ckpt, err = checkpoint.Resume(o.ckptDir, hdr); err != nil {
		return err
	}
	if st.dayRefs, err = st.ckpt.LoadDayRefs(st.c.cfg.FromDay, st.c.cfg.ToDay); err != nil {
		return err
	}
	for d, ref := range st.dayRefs {
		if err := daystore.VerifyFile(st.dayDir, ref.File, ref.SHA256); err != nil {
			return fmt.Errorf("distjoin: resuming day %d: %w", int32(d), err)
		}
	}
	st.resumed = len(st.dayRefs)
	if ok, err := st.ckpt.Load(planRecord, &st.plan); err != nil {
		return err
	} else if ok {
		st.loadedPlan = true
		for i := 0; i < st.plan.NumRanges; i++ {
			var rr rangeResult
			if ok, err := st.ckpt.Load(rangeRecord(i), &rr); err != nil {
				return err
			} else if ok {
				st.ranges[i] = rr.Events
			}
		}
	}
	return nil
}

// queueSweeps fills the dispatch queue with every day not already
// journaled, ascending. Quarantined days of a previous incarnation were
// never journaled, so they re-run — and re-quarantine — deterministically,
// exactly like the in-process supervisor on resume.
func (st *runState) queueSweeps() {
	for d := st.c.cfg.FromDay; d <= st.c.cfg.ToDay; d++ {
		if _, ok := st.dayRefs[d]; !ok {
			st.pending = append(st.pending, &task{day: d})
		}
	}
}

// sweepsDone reports whether every day is accounted for: journaled,
// quarantined — nothing pending or in flight.
func (st *runState) sweepsDone() bool {
	if st.joinStarted {
		return true
	}
	for _, t := range st.pending {
		if !t.join {
			return false
		}
	}
	for _, w := range st.workers {
		if w.inflight != nil && !w.inflight.join {
			return false
		}
	}
	done := len(st.dayRefs) + len(st.skipped)
	return done == int(st.c.cfg.ToDay-st.c.cfg.FromDay)+1
}

// startJoin transitions to the join phase: freeze the list of accepted
// day files, build the coordinator's pipeline over them, fix (or verify)
// the journaled partition plan, and queue the incomplete ranges.
func (st *runState) startJoin(ctx context.Context) error {
	st.joinStarted = true
	sort.Slice(st.skipped, func(i, j int) bool { return st.skipped[i].Day < st.skipped[j].Day })

	for d, ref := range st.dayRefs {
		st.setup = append(st.setup, daystore.SealedFile{Day: d, Name: ref.File, SHA256: ref.SHA256})
	}
	sort.Slice(st.setup, func(i, j int) bool { return st.setup[i].Day < st.setup[j].Day })
	var err error
	if st.days, err = daystore.Open(st.dayDir); err != nil {
		return err
	}
	st.pipe = st.sess.NewPipeline(nil, st.quarantined(), st.c.reg, core.WithDayStore(st.days))
	numShards := st.pipe.JoinShardCount(st.sess.Attacks)

	if st.loadedPlan {
		if st.plan.NumShards != numShards {
			return fmt.Errorf("distjoin: journaled join plan has %d shards, this run computes %d — refusing to resume",
				st.plan.NumShards, numShards)
		}
	} else {
		nr := st.c.opts.numRanges
		if nr <= 0 {
			nr = defaultNumRanges
		}
		if nr > numShards {
			nr = numShards
		}
		if nr < 1 {
			nr = 1
		}
		st.plan = joinPlan{NumShards: numShards, NumRanges: nr}
		if st.ckpt != nil {
			if err := st.ckpt.Write(planRecord, &st.plan); err != nil {
				return err
			}
		}
	}
	for i := 0; i < st.plan.NumRanges; i++ {
		if _, ok := st.ranges[i]; !ok {
			st.pending = append(st.pending, &task{join: true, rng: i})
		}
	}
	// Workers that registered during the sweep phase need the join state
	// before any range assignment; setup is sent lazily by schedule().
	return ctx.Err()
}

func (st *runState) quarantined() []clock.Day {
	out := make([]clock.Day, len(st.skipped))
	for i := range st.skipped {
		out[i] = st.skipped[i].Day
	}
	return out
}

// joinDone reports whether every range result is in.
func (st *runState) joinDone() bool {
	return st.joinStarted && len(st.ranges) == st.plan.NumRanges
}

// finish assembles the Study, tells the fleet to exit, and returns.
func (st *runState) finish(ctx context.Context) (*study.Study, error) {
	if st.ckpt == nil {
		// The day directory is temporary and goes when Run returns. Map
		// every day file first (mappings outlive the unlink), so the
		// returned Study's pipeline can still read any day.
		if err := st.days.Verify(); err != nil {
			return nil, err
		}
	}
	parts := make([][]core.TaggedEvent, 0, st.plan.NumRanges)
	for i := 0; i < st.plan.NumRanges; i++ {
		parts = append(parts, st.ranges[i])
	}
	s := &study.Study{
		Config:    st.c.cfg,
		World:     st.sess.World,
		Schedule:  st.sess.Schedule,
		Telescope: st.sess.Telescope,
		Obs:       st.sess.Obs,
		Attacks:   st.sess.Attacks,
		Net:       st.sess.Net,
		Resolver:  st.sess.Resolver,
		Engine:    st.sess.Engine,
		Agg:       st.sess.NewAggregator(),
		Pipeline:  st.pipe,
		Metrics:   st.c.reg,
	}
	s.Classified = st.pipe.Classify(st.sess.Attacks)
	s.Events = core.MergeTaggedEvents(parts)
	s.Report = study.RunReport{
		ResumedDays:   st.resumed,
		CompletedDays: st.complete,
		SkippedDays:   st.skipped,
	}
	snap := st.c.reg.StableSnapshot()
	s.Report.Metrics = &snap

	for _, w := range st.workers {
		st.post(w, &message{Kind: kindShutdown})
	}
	return s, ctx.Err()
}

// addConn registers a raw connection and spawns its reader and writer.
func (st *runState) addConn(conn net.Conn) {
	st.nextID++
	w := &fleetWorker{
		id:       st.nextID,
		conn:     conn,
		wr:       &wire{conn: conn},
		outbox:   make(chan *message, 64),
		wdone:    make(chan struct{}),
		lastSeen: time.Now(),
	}
	st.workers[w.id] = w
	go func() { // writer
		defer close(w.wdone)
		for m := range w.outbox {
			if err := st.write(w, m); err != nil {
				st.evs <- coordEvent{w: w, err: err}
				return
			}
			if m.Kind != kindJoinSetup {
				continue
			}
			// The plan frame is followed by the day files it announced,
			// each read from disk just before its frame is written: neither
			// the outbox nor the heap ever holds more than one day.
			for _, f := range st.setup {
				image, err := os.ReadFile(filepath.Join(st.dayDir, f.Name))
				if err != nil {
					st.evs <- coordEvent{err: fmt.Errorf("distjoin: reading day file for %s: %w", w.name, err)}
					return
				}
				if err := st.write(w, &message{Kind: kindDayFile, Day: f.Day, Image: image, SHA256: f.SHA256}); err != nil {
					st.evs <- coordEvent{w: w, err: err}
					return
				}
			}
		}
	}()
	go func() { // reader
		for {
			var m message
			if err := w.wr.recv(&m); err != nil {
				st.evs <- coordEvent{w: w, err: err}
				return
			}
			st.evs <- coordEvent{w: w, m: &m}
		}
	}()
}

// write sends one frame to a worker. A wedged peer must not wedge the
// writer, so every frame gets its own deadline.
func (st *runState) write(w *fleetWorker, m *message) error {
	w.conn.SetWriteDeadline(time.Now().Add(time.Duration(st.c.opts.deadAfter) * st.c.opts.heartbeat))
	return w.wr.send(m)
}

// post enqueues a message for a worker without ever blocking the event
// loop; a worker too backlogged to accept is treated as failed.
func (st *runState) post(w *fleetWorker, m *message) {
	select {
	case w.outbox <- m:
	default:
		go func() { st.evs <- coordEvent{w: w, err: fmt.Errorf("distjoin: worker %s outbox overflow", w.name)} }()
	}
}

// handle processes one decoded frame. A returned error aborts the run
// (checkpoint I/O, plan mismatch); per-worker trouble never does.
func (st *runState) handle(w *fleetWorker, m *message) error {
	if _, ok := st.workers[w.id]; !ok {
		// Frame from a worker already dropped: its task was reassigned. A
		// result frame racing the drop is a redelivery if the work is
		// already complete; either way nothing is accepted from the dead.
		return nil
	}
	w.lastSeen = time.Now()
	st.c.m.framesIn.Inc()
	if w.state == stateSuspect {
		// it lives after all
		w.state = stateLive
		st.gauges()
	}
	switch m.Kind {
	case kindHello:
		w.name = m.Name
		if w.name == "" {
			w.name = fmt.Sprintf("worker-%d", w.id)
		}
		w.hello = true
		st.post(w, &message{
			Kind:        kindWelcome,
			ConfigJSON:  st.cfgJSON,
			HeartbeatMS: st.c.opts.heartbeat.Milliseconds(),
		})
		st.gauges()

	case kindHeartbeat:
		// lastSeen already refreshed

	case kindDraining:
		if w.state != stateDraining {
			w.state = stateDraining
			st.gauges()
		}

	case kindGoodbye:
		// Graceful deregistration: nothing should be in flight; if the
		// drain raced an assignment, recover it.
		st.removeWorker(w, nil)

	case kindSweepDone:
		t := w.inflight
		w.inflight = nil
		if t == nil || t.join || t.day != m.Day {
			// Unsolicited or reassigned-elsewhere result.
			if _, done := st.dayRefs[m.Day]; done {
				st.c.m.shardRedeliveries.Inc()
			}
			if t != nil {
				w.inflight = t // unrelated in-flight task, keep it
			}
			return nil
		}
		if _, done := st.dayRefs[m.Day]; done {
			st.c.m.shardRedeliveries.Inc()
			return nil
		}
		f, err := daystore.Install(st.dayDir, m.Day, m.Image, m.SHA256)
		if errors.Is(err, daystore.ErrCorrupt) {
			// The frame was intact but the file in it is not: this worker
			// cannot be trusted with the day. Same as losing it mid-shard.
			w.inflight = t
			st.dropWorker(w, err)
			return nil
		}
		if err != nil {
			return fmt.Errorf("distjoin: installing day %d: %w", int32(m.Day), err)
		}
		ref := checkpoint.DayRef{File: f.Name, SHA256: f.SHA256}
		if st.ckpt != nil {
			if err := st.ckpt.WriteDayRef(m.Day, ref); err != nil {
				return fmt.Errorf("distjoin: journaling day %d: %w", int32(m.Day), err)
			}
		}
		st.dayRefs[m.Day] = ref
		st.complete++
		// Exactly-once metric fold: the worker ships its private sweep
		// registry only on success, and only the accepted copy is
		// imported — identical totals to the in-process supervisor.
		st.c.reg.ImportSnapshot(m.Metrics)
		st.c.m.sweepDaysDone.Inc()
		st.c.m.observeTask(w.name, w.started)

	case kindJoinDone:
		t := w.inflight
		w.inflight = nil
		if t == nil || !t.join || t.rng != m.Range {
			if _, done := st.ranges[m.Range]; done {
				st.c.m.shardRedeliveries.Inc()
			}
			if t != nil {
				w.inflight = t
			}
			return nil
		}
		if _, done := st.ranges[m.Range]; done {
			st.c.m.shardRedeliveries.Inc()
			return nil
		}
		if st.ckpt != nil {
			if err := st.ckpt.Write(rangeRecord(m.Range), &rangeResult{Events: m.Events}); err != nil {
				return fmt.Errorf("distjoin: journaling range %d: %w", m.Range, err)
			}
		}
		st.ranges[m.Range] = m.Events
		st.c.m.joinRangesDone.Inc()
		st.c.m.observeTask(w.name, w.started)

	case kindTaskFailed:
		t := w.inflight
		w.inflight = nil
		if t == nil {
			return nil
		}
		st.c.m.taskFailures.Inc()
		t.attempts++
		t.lastReason, t.lastStack = m.Reason, m.Stack
		return st.resolveFailure(t)
	}
	return nil
}

// resolveFailure decides a failed task's fate: retry with backoff,
// quarantine (sweeps), or abort the run (join ranges out of retries).
func (st *runState) resolveFailure(t *task) error {
	if !t.join {
		if t.attempts >= sweepMaxAttempts {
			st.skipped = append(st.skipped, study.SkippedDay{
				Day:      t.day,
				Reason:   t.lastReason,
				Stack:    t.lastStack,
				Attempts: t.attempts,
			})
			return nil
		}
	} else if t.attempts >= joinMaxFailures {
		return fmt.Errorf("distjoin: join range %d failed %d times: %s", t.rng, t.attempts, t.lastReason)
	}
	st.requeue(t)
	return nil
}

// requeue re-enqueues a task after a decorrelated-jitter backoff scaled
// by its failure count (resilience.RetryBudget.DelayFor — the task keeps
// its own attempt counter, so the stateless form applies).
func (st *runState) requeue(t *task) {
	attempt := t.attempts
	if attempt < 1 {
		attempt = 1
	}
	delay := st.c.retry.DelayFor(attempt)
	time.AfterFunc(delay, func() { st.evs <- coordEvent{retry: t} })
}

// enqueue returns a retried task to the dispatch queue in deterministic
// position (sweeps by day, then ranges by index).
func (st *runState) enqueue(t *task) {
	// A task can only be in backoff because it is neither complete nor in
	// flight; double-check completion in case a straggler finished it.
	if !t.join {
		if _, done := st.dayRefs[t.day]; done {
			return
		}
	} else if _, done := st.ranges[t.rng]; done {
		return
	}
	st.pending = append(st.pending, t)
	sort.SliceStable(st.pending, func(i, j int) bool {
		a, b := st.pending[i], st.pending[j]
		if a.join != b.join {
			return !a.join
		}
		if !a.join {
			return a.day < b.day
		}
		return a.rng < b.rng
	})
}

// dropWorker handles a connection failure: the worker is removed and its
// in-flight task — indistinguishable from a crashed shard — is charged a
// failed attempt and retried elsewhere.
func (st *runState) dropWorker(w *fleetWorker, err error) {
	if _, ok := st.workers[w.id]; !ok {
		return
	}
	if t := w.inflight; t != nil && !t.join {
		st.c.m.taskFailures.Inc()
		t.attempts++
		t.lastReason = fmt.Sprintf("worker %s lost mid-shard: %v", w.name, err)
		t.lastStack = ""
	}
	st.removeWorker(w, err)
}

// removeWorker unregisters a worker, reassigning any in-flight task.
func (st *runState) removeWorker(w *fleetWorker, err error) {
	if _, ok := st.workers[w.id]; !ok {
		return
	}
	delete(st.workers, w.id)
	close(w.outbox)
	w.conn.Close()
	if t := w.inflight; t != nil {
		w.inflight = nil
		st.c.m.reassignments.Inc()
		if !t.join && err != nil {
			// Lost-worker attempts already charged by dropWorker; a sweep
			// out of attempts quarantines here.
			if t.attempts >= sweepMaxAttempts {
				st.skipped = append(st.skipped, study.SkippedDay{
					Day: t.day, Reason: t.lastReason, Stack: t.lastStack, Attempts: t.attempts,
				})
				st.gauges()
				return
			}
		}
		st.requeue(t)
	}
	st.gauges()
}

// checkLiveness runs on the heartbeat tick: quiet workers turn suspect
// (task reassigned, connection kept), silent ones are disconnected.
func (st *runState) checkLiveness() {
	now := time.Now()
	hb := st.c.opts.heartbeat
	for _, w := range st.workers {
		if !w.hello {
			continue
		}
		quiet := now.Sub(w.lastSeen)
		switch {
		case quiet > time.Duration(st.c.opts.deadAfter)*hb:
			st.dropWorker(w, fmt.Errorf("no heartbeat for %v", quiet.Round(time.Millisecond)))
		case quiet > time.Duration(st.c.opts.suspectAfter)*hb && w.state == stateLive:
			w.state = stateSuspect
			if t := w.inflight; t != nil {
				// Reassign without charging an attempt: the worker may be
				// slow, not gone. If it completes late anyway, the
				// completion map makes the duplicate a counted redelivery.
				w.inflight = nil
				st.c.m.reassignments.Inc()
				st.requeue(t)
			}
			st.gauges()
		}
	}
}

// schedule assigns pending tasks to idle live workers in deterministic
// task order, lowest worker id first.
func (st *runState) schedule() {
	if len(st.pending) == 0 {
		return
	}
	if !st.fleetStarted {
		registered := 0
		for _, w := range st.workers {
			if w.hello && w.state != stateDraining {
				registered++
			}
		}
		if registered < st.c.opts.minWork {
			return
		}
		st.fleetStarted = true
	}
	ids := make([]int, 0, len(st.workers))
	for id := range st.workers {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if len(st.pending) == 0 {
			return
		}
		w := st.workers[id]
		if !w.hello || w.state != stateLive || w.inflight != nil {
			continue
		}
		t := st.pending[0]
		if t.join && !st.joinStarted {
			return
		}
		st.pending = st.pending[1:]
		if t.join && !w.joinReady {
			st.post(w, st.joinSetupMsg())
			w.joinReady = true
		}
		w.inflight = t
		w.started = time.Now()
		if t.join {
			st.post(w, &message{Kind: kindAssignJoin, Range: t.rng})
		} else {
			st.post(w, &message{Kind: kindAssignSweep, Day: t.day})
		}
	}
}

// joinSetupMsg is the join-phase plan for one worker: how many day files
// follow (the connection writer streams them), the quarantine set, and
// the partition.
func (st *runState) joinSetupMsg() *message {
	return &message{
		Kind:        kindJoinSetup,
		NumDays:     len(st.setup),
		Quarantined: st.quarantined(),
		NumShards:   st.plan.NumShards,
		NumRanges:   st.plan.NumRanges,
	}
}

// gauges republishes the fleet-composition gauges.
func (st *runState) gauges() {
	var live, suspect, draining int64
	for _, w := range st.workers {
		if !w.hello {
			continue
		}
		switch w.state {
		case stateLive:
			live++
		case stateSuspect:
			suspect++
		case stateDraining:
			draining++
		}
	}
	st.c.m.workersLive.Set(live)
	st.c.m.workersSuspect.Set(suspect)
	st.c.m.workersDraining.Set(draining)
}

// closeAll tears the fleet down on exit: outboxes close first and the
// writers drain (so a posted shutdown reaches graceful workers), then
// the connections come down.
func (st *runState) closeAll() {
	for _, w := range st.workers {
		close(w.outbox)
	}
	for _, w := range st.workers {
		select {
		case <-w.wdone:
		case <-time.After(2 * time.Second):
		}
		w.conn.Close()
	}
	st.workers = map[int]*fleetWorker{}
}
