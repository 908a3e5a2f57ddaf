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
	"dnsddos/internal/daystore"
	"dnsddos/internal/obs"
	"dnsddos/internal/resilience"
	"dnsddos/internal/study"
)

// coordinator.go owns the run: a single-goroutine event loop holds all
// fleet state, fed by per-connection reader goroutines, a liveness
// ticker, and retry timers. Workers never share state; every decision —
// assignment, reassignment — happens in the loop, which is what keeps the
// exactly-once bookkeeping simple enough to trust. Which days are done,
// retried or quarantined is the study.Ledger's call (DESIGN §3.2), shared
// with the in-process pool; this file is transport, liveness and
// assignment. The fleet only sweeps: once every day is settled the
// coordinator joins the sealed days itself, in process.

// CoordOption configures a Coordinator.
type CoordOption func(*coordOptions)

type coordOptions struct {
	addr      string
	heartbeat time.Duration
	ckptDir   string
	resume    bool
	reg       *obs.Registry
	minWork   int
	backoff   time.Duration
}

// WithListenAddr sets the TCP listen address (default 127.0.0.1:0).
func WithListenAddr(addr string) CoordOption {
	return func(o *coordOptions) { o.addr = addr }
}

// WithHeartbeatInterval sets the fleet heartbeat interval (default 1s),
// the one liveness knob: a worker silent for 5 intervals is suspect, for
// 10 dead.
func WithHeartbeatInterval(d time.Duration) CoordOption {
	return func(o *coordOptions) { o.heartbeat = d }
}

// WithCheckpointDir journals the completed days to dir so a killed
// coordinator can resume. The sealed day files the fleet delivers live in
// dir/days and the journal references them by content hash; without a
// checkpoint directory they go to a temporary directory that Run removes
// on return.
func WithCheckpointDir(dir string) CoordOption {
	return func(o *coordOptions) { o.ckptDir = dir }
}

// WithResume resumes from the journal in the checkpoint directory instead
// of starting fresh; the directory's header must match the configuration.
func WithResume(resume bool) CoordOption {
	return func(o *coordOptions) { o.resume = resume }
}

// WithMetrics publishes fleet state and the fleet's sweep counts into reg,
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

// The liveness thresholds, in heartbeat intervals: a worker silent for
// suspectAfter is suspect and its in-flight task is reassigned; one
// silent for deadAfter is dead and disconnected.
const (
	suspectAfter = 5
	deadAfter    = 10
)

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
		addr:      "127.0.0.1:0",
		heartbeat: time.Second,
		minWork:   1,
		backoff:   resilience.DefaultBase,
	}
	for _, fn := range opts {
		fn(&o)
	}
	if o.resume && o.ckptDir == "" {
		return nil, fmt.Errorf("distjoin: WithResume requires WithCheckpointDir")
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

// task is one unit of fleet work: a day to sweep. Its attempts are the
// ledger's to count.
type task struct {
	day clock.Day
}

// fleetWorker is the coordinator-side view of one connection.
type fleetWorker struct {
	id       int
	name     string
	conn     net.Conn
	wr       *wire
	outbox   chan *message
	wdone    chan struct{} // closed when the writer goroutine exits
	state    workerState
	hello    bool
	lastSeen time.Time
	inflight *task
	started  time.Time
}

// coordEvent is one event-loop delivery.
type coordEvent struct {
	w     *fleetWorker // non-nil for connection events
	m     *message     // non-nil for decoded frames
	err   error        // connection failure; with a nil w, a fatal local one
	conn  net.Conn     // non-nil for new connections
	retry *task        // non-nil when a backoff timer fired
}

// Run executes the distributed study and returns the completed run,
// byte-identical to single-process study.RunContext over the same
// configuration. It returns early only on cancellation (the journal, if
// any, stays resumable) or checkpoint I/O failure.
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
	defer st.ledger.Close()
	for _, d := range st.ledger.Pending() {
		st.pending = append(st.pending, &task{day: d})
	}

	// Accept loop: hands raw connections to the event loop until Run's
	// deferred Close of the listener.
	go func() {
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
		// Completion is checked between events so every path (result,
		// failure, worker change) funnels through one place. A resumed
		// journal whose days are all done gets here before any worker.
		if st.ledger.Settled() {
			return st.join(ctx)
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

	pending []*task // dispatch queue, ascending by day

	// An accepted day is a sealed file in dayDir (<checkpoint>/days, or a
	// temporary directory) and an entry in the ledger — the coordinator's
	// heap never holds a day's measurements.
	dayDir string
	ledger *study.Ledger

	// fleetStarted latches once minWorkers registered simultaneously;
	// dispatch is gated only until then.
	fleetStarted bool
}

// join ends the run once every day is settled: the fleet is told to exit,
// and the coordinator ends the run over the sealed days as
// study.RunContext does (Study.Finish).
func (st *runState) join(ctx context.Context) (*study.Study, error) {
	for _, w := range st.workers {
		st.post(w, &message{Kind: kindShutdown})
	}
	days, err := daystore.Open(st.dayDir)
	if err != nil {
		return nil, err
	}
	if st.c.opts.ckptDir == "" {
		// The day directory is temporary and goes when Run returns. Map
		// every day file first (mappings outlive the unlink), so the
		// returned Study's pipeline can still read any day.
		if err := days.Verify(); err != nil {
			return nil, err
		}
	}
	s := st.sess.NewStudy(st.c.reg)
	if err := s.Finish(ctx, days, st.ledger, false); err != nil {
		return nil, err
	}
	return s, nil
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
			// A wedged peer must not wedge the writer, so every frame gets
			// its own deadline.
			w.conn.SetWriteDeadline(time.Now().Add(deadAfter * st.c.opts.heartbeat))
			if err := w.wr.send(m); err != nil {
				st.evs <- coordEvent{w: w, err: err}
				return
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
// (checkpoint I/O); per-worker trouble never does.
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
		if t == nil || t.day != m.Day {
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
		// The worker ships the day's sweep counts only on success, and
		// the ledger folds only the accepted copy.
		if _, err := st.ledger.Complete(m.Day, f, m.Counts); err != nil {
			return fmt.Errorf("distjoin: journaling day %d: %w", int32(m.Day), err)
		}
		st.c.m.sweepDaysDone.Inc()
		st.c.m.observeTask(w.name, w.started)

	case kindTaskFailed:
		t := w.inflight
		w.inflight = nil
		if t == nil {
			return nil
		}
		st.c.m.taskFailures.Inc()
		if st.ledger.Fail(t.day, m.Reason, m.Stack, true) {
			st.requeue(t)
		}
	}
	return nil
}

// requeue re-enqueues a task after a decorrelated-jitter backoff
// (resilience.RetryBudget.DelayFor, the stateless form). A task gets
// here with at most one charged failure — the second quarantines the day
// — so the delay is always the first attempt's.
func (st *runState) requeue(t *task) {
	time.AfterFunc(st.c.retry.DelayFor(1), func() { st.evs <- coordEvent{retry: t} })
}

// enqueue returns a retried task to the dispatch queue in day order.
func (st *runState) enqueue(t *task) {
	// A task can only be in backoff because it is neither complete nor in
	// flight; double-check completion in case a straggler finished it.
	if st.ledger.Done(t.day) {
		return
	}
	st.pending = append(st.pending, t)
	sort.SliceStable(st.pending, func(i, j int) bool { return st.pending[i].day < st.pending[j].day })
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
		if err != nil {
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
		case quiet > deadAfter*hb:
			st.removeWorker(w, fmt.Errorf("no heartbeat for %v", quiet.Round(time.Millisecond)))
		case quiet > suspectAfter*hb && w.state == stateLive:
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

// schedule assigns pending tasks to idle live workers in day order,
// lowest worker id first.
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
		st.pending = st.pending[1:]
		w.inflight = t
		w.started = time.Now()
		st.post(w, &message{Kind: kindAssignSweep, Day: t.day})
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
