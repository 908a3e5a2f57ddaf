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
// decision — assignment, reassignment, journaling — happens in the loop,
// which is what keeps the exactly-once bookkeeping simple enough to trust.
// Which days are done, retried or quarantined is the study.Ledger's call
// (DESIGN §3.2), shared with the in-process pool; this file is transport,
// liveness, assignment and the join-range journal.

const (
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
	// failures counts a join range's reported failures; joinMaxFailures
	// aborts the run. A day sweep's attempts are the ledger's to count.
	failures int
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
		ranges:  make(map[int][]core.TaggedEvent),
	}
	if c.opts.ckptDir == "" {
		if st.dayDir, err = os.MkdirTemp("", "distjoin-days-*"); err != nil {
			return nil, fmt.Errorf("distjoin: creating day directory: %w", err)
		}
		defer os.RemoveAll(st.dayDir)
	} else {
		st.dayDir = filepath.Join(c.opts.ckptDir, "days")
	}
	if st.ledger, err = study.OpenLedger(c.cfg, c.reg, c.opts.ckptDir, st.dayDir, c.opts.resume); err != nil {
		return nil, err
	}
	if c.opts.resume {
		if err := st.loadJoinJournal(); err != nil {
			return nil, err
		}
	}
	for _, d := range st.ledger.Pending() {
		st.pending = append(st.pending, &task{day: d})
	}

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
		if !st.joinStarted && st.ledger.Settled() {
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
				st.removeWorker(ev.w, ev.err)
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

	pending []*task // dispatch queue, deterministic order

	// sweep phase: an accepted day is a sealed file in dayDir
	// (<checkpoint>/days, or a temporary directory) and an entry in the
	// ledger — the coordinator's heap never holds a day's measurements.
	dayDir string
	ledger *study.Ledger

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

// loadJoinJournal restores the join-phase records a previous incarnation
// journaled beside the days: the partition plan and the completed ranges.
func (st *runState) loadJoinJournal() error {
	journal := st.ledger.Journal()
	if ok, err := journal.Load(planRecord, &st.plan); err != nil || !ok {
		return err
	}
	st.loadedPlan = true
	for i := 0; i < st.plan.NumRanges; i++ {
		var rr rangeResult
		if ok, err := journal.Load(rangeRecord(i), &rr); err != nil {
			return err
		} else if ok {
			st.ranges[i] = rr.Events
		}
	}
	return nil
}

// startJoin transitions to the join phase: freeze the list of accepted
// day files, build the coordinator's pipeline over them, fix (or verify)
// the journaled partition plan, and queue the incomplete ranges.
func (st *runState) startJoin(ctx context.Context) error {
	st.joinStarted = true
	st.setup = st.ledger.Files()
	var err error
	if st.days, err = daystore.Open(st.dayDir); err != nil {
		return err
	}
	st.pipe = st.sess.NewPipeline(st.days, st.ledger.Quarantined(), st.c.reg)
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
		if journal := st.ledger.Journal(); journal != nil {
			if err := journal.Write(planRecord, &st.plan); err != nil {
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

// joinDone reports whether every range result is in.
func (st *runState) joinDone() bool {
	return st.joinStarted && len(st.ranges) == st.plan.NumRanges
}

// finish assembles the Study, tells the fleet to exit, and returns.
func (st *runState) finish(ctx context.Context) (*study.Study, error) {
	if st.ledger.Journal() == nil {
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
	s := st.sess.NewStudy(st.c.reg)
	s.Pipeline = st.pipe
	s.Classified = st.pipe.Classify(st.sess.Attacks)
	s.Events = core.MergeTaggedEvents(parts)
	s.Report = st.ledger.Report()

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
			if st.ledger.Done(m.Day) {
				st.c.m.shardRedeliveries.Inc()
			}
			if t != nil {
				w.inflight = t // unrelated in-flight task, keep it
			}
			return nil
		}
		if st.ledger.Done(m.Day) {
			st.c.m.shardRedeliveries.Inc()
			return nil
		}
		f, err := daystore.Install(st.dayDir, m.Day, m.Image, m.SHA256)
		if errors.Is(err, daystore.ErrCorrupt) {
			// The frame was intact but the file in it is not: this worker
			// cannot be trusted with the day. Same as losing it mid-shard.
			w.inflight = t
			st.removeWorker(w, err)
			return nil
		}
		if err != nil {
			return fmt.Errorf("distjoin: installing day %d: %w", int32(m.Day), err)
		}
		// The worker ships its private sweep metrics only on success, and
		// the ledger folds only the accepted copy.
		if _, err := st.ledger.Complete(m.Day, f, m.Metrics); err != nil {
			return fmt.Errorf("distjoin: journaling day %d: %w", int32(m.Day), err)
		}
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
		if journal := st.ledger.Journal(); journal != nil {
			if err := journal.Write(rangeRecord(m.Range), &rangeResult{Events: m.Events}); err != nil {
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
		if !t.join {
			if st.ledger.Fail(t.day, m.Reason, m.Stack, true) {
				st.requeue(t)
			}
			return nil
		}
		// Ranges have no quarantine: results must be complete.
		if t.failures++; t.failures >= joinMaxFailures {
			return fmt.Errorf("distjoin: join range %d failed %d times: %s", t.rng, t.failures, m.Reason)
		}
		st.requeue(t)
	}
	return nil
}

// requeue re-enqueues a task after a decorrelated-jitter backoff
// (resilience.RetryBudget.DelayFor, the stateless form). A task gets
// here with at most one charged failure — the second quarantines the day
// or aborts the run — so the delay is always the first attempt's.
func (st *runState) requeue(t *task) {
	time.AfterFunc(st.c.retry.DelayFor(1), func() { st.evs <- coordEvent{retry: t} })
}

// enqueue returns a retried task to the dispatch queue in deterministic
// position (sweeps by day, then ranges by index).
func (st *runState) enqueue(t *task) {
	// A task can only be in backoff because it is neither complete nor in
	// flight; double-check completion in case a straggler finished it.
	if !t.join {
		if st.ledger.Done(t.day) {
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

// removeWorker unregisters a worker and reassigns its in-flight task. A
// nil err is a graceful goodbye; otherwise the connection failed and an
// in-flight sweep — indistinguishable from a crashed shard — is charged a
// failed attempt, which quarantines the day when it was its last.
func (st *runState) removeWorker(w *fleetWorker, err error) {
	if _, ok := st.workers[w.id]; !ok {
		return
	}
	delete(st.workers, w.id)
	close(w.outbox)
	w.conn.Close()
	if t := w.inflight; t != nil {
		w.inflight = nil
		retry := true
		if !t.join && err != nil {
			st.c.m.taskFailures.Inc()
			retry = st.ledger.Fail(t.day, fmt.Sprintf("worker %s lost mid-shard: %v", w.name, err), "", true)
		}
		st.c.m.reassignments.Inc()
		if retry {
			st.requeue(t)
		}
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
			st.removeWorker(w, fmt.Errorf("no heartbeat for %v", quiet.Round(time.Millisecond)))
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
		Quarantined: st.ledger.Quarantined(),
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
