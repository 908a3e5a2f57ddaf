package distjoin

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"runtime/debug"
	"sync"
	"time"

	"dnsddos/internal/clock"
	"dnsddos/internal/core"
	"dnsddos/internal/daystore"
	"dnsddos/internal/nsset"
	"dnsddos/internal/obs"
	"dnsddos/internal/study"
)

// Worker is one fleet member: it registers with the coordinator, rebuilds
// the deterministic study session from the config the coordinator sends,
// and executes assigned day-sweeps and join shard ranges until the run
// completes, the context is cancelled (crash-equivalent: abandon
// everything), or Drain is called (graceful: finish the in-flight task,
// deregister, exit).
type Worker struct {
	name string
	// dial (default: plain TCP) and beforeSweep (default: nil) are the
	// chaos suite's hooks, set through export_test.go.
	dial        func(ctx context.Context, addr string) (net.Conn, error)
	beforeSweep func(clock.Day)
	reg         *obs.Registry
	spoolDir    string

	drainOnce sync.Once
	drainCh   chan struct{}
}

// WorkerOption configures a Worker.
type WorkerOption func(*Worker)

// WithWorkerMetrics observes the worker's session (stage timers, join
// engine internals) into reg. The deterministic sweep metrics always
// travel to the coordinator regardless.
func WithWorkerMetrics(reg *obs.Registry) WorkerOption {
	return func(w *Worker) { w.reg = reg }
}

// WithSpoolDir names the directory the worker installs the coordinator's
// sealed day files into at join setup; its shard joins always run against
// the mmap-backed daystore.Set over that directory, so the resident
// footprint stays flat in the world size. Without it the worker uses a
// temporary directory and removes it on exit. The directory is cleared of
// stale sealed files on every setup, so one dir per worker process is
// safe across runs.
func WithSpoolDir(dir string) WorkerOption {
	return func(w *Worker) { w.spoolDir = dir }
}

// NewWorker builds a worker. The name identifies it in fleet metrics
// (distjoin.worker_latency.<name>) and log lines.
func NewWorker(name string, opts ...WorkerOption) *Worker {
	w := &Worker{
		name: name,
		dial: func(ctx context.Context, addr string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		},
		drainCh: make(chan struct{}),
	}
	for _, o := range opts {
		o(w)
	}
	if w.reg == nil {
		w.reg = obs.New()
	}
	return w
}

// Drain requests graceful shutdown: the worker announces it is draining
// (so the coordinator assigns it nothing new), finishes its in-flight
// task, deregisters, and Run returns nil. Safe to call from a signal
// handler goroutine; idempotent.
func (w *Worker) Drain() {
	w.drainOnce.Do(func() { close(w.drainCh) })
}

// frameEvent is one reader-goroutine delivery: a decoded frame or the
// read error that ended the connection.
type frameEvent struct {
	m   message
	err error
}

// Run connects to the coordinator at addr and serves assignments until
// shutdown, drain, cancellation, or connection failure. Cancellation is
// the crash path: in-flight work is abandoned mid-task and the
// coordinator's liveness machinery recovers it.
func (w *Worker) Run(ctx context.Context, addr string) error {
	spool := w.spoolDir
	if spool == "" {
		var err error
		if spool, err = os.MkdirTemp("", "joinworker-spool-*"); err != nil {
			return fmt.Errorf("distjoin: worker %s: creating spool: %w", w.name, err)
		}
		defer os.RemoveAll(spool)
	}
	conn, err := w.dial(ctx, addr)
	if err != nil {
		return fmt.Errorf("distjoin: worker %s: dialing %s: %w", w.name, addr, err)
	}
	defer conn.Close()
	wr := &wire{conn: conn}

	if err := wr.send(&message{Kind: kindHello, Name: w.name}); err != nil {
		return fmt.Errorf("distjoin: worker %s: registering: %w", w.name, err)
	}
	var welcome message
	if err := wr.recv(&welcome); err != nil {
		return fmt.Errorf("distjoin: worker %s: awaiting welcome: %w", w.name, err)
	}
	if welcome.Kind != kindWelcome {
		return fmt.Errorf("distjoin: worker %s: expected welcome, got kind %d", w.name, welcome.Kind)
	}
	// Stop unblocks the reader and heartbeat goroutines by closing the
	// connection; Run's defer triggers it on every exit path.
	stopped := make(chan struct{})
	defer close(stopped)

	// Heartbeats flow from their own goroutine, started before anything
	// slow, so neither the session build below nor a long sweep ever
	// starves liveness. A failed heartbeat write closes the connection,
	// which surfaces to the main loop as a reader error.
	hb := time.Duration(welcome.HeartbeatMS) * time.Millisecond
	if hb <= 0 {
		hb = time.Second
	}
	go func() {
		t := time.NewTicker(hb)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if err := wr.send(&message{Kind: kindHeartbeat}); err != nil {
					conn.Close()
					return
				}
			case <-stopped:
				return
			case <-ctx.Done():
				conn.Close()
				return
			}
		}
	}()

	// The deterministic world rebuild happens under heartbeat cover: it
	// is the slowest thing a worker does outside a sweep, and the
	// coordinator must not mistake a worker mid-build for a dead one.
	var cfg study.Config
	if err := json.Unmarshal(welcome.ConfigJSON, &cfg); err != nil {
		return fmt.Errorf("distjoin: worker %s: decoding config: %w", w.name, err)
	}
	sess, err := study.NewSession(ctx, cfg, w.reg)
	if err != nil {
		return fmt.Errorf("distjoin: worker %s: building session: %w", w.name, err)
	}

	// Announce drain the moment it is requested, even mid-task: the
	// coordinator stops assigning immediately while the main loop finishes
	// the in-flight task.
	go func() {
		select {
		case <-w.drainCh:
			wr.send(&message{Kind: kindDraining})
		case <-stopped:
		}
	}()

	frames := make(chan frameEvent)
	go func() {
		for {
			var m message
			err := wr.recv(&m)
			select {
			case frames <- frameEvent{m: m, err: err}:
			case <-stopped:
				return
			}
			if err != nil {
				return
			}
		}
	}()

	// Join state: the setup plan, how many of its day files have been
	// installed into the spool, and the pipeline built over them at the
	// first range assignment.
	var (
		setup     *message
		installed int
		pipe      *core.Pipeline
	)
	// Sweep state: the aggregator and the image buffer a completed
	// day-sweep leaves empty for the next. A sweep that panics takes its
	// aggregator with it.
	var (
		scratch *nsset.Aggregator
		image   []byte
	)
	draining := func() bool {
		select {
		case <-w.drainCh:
			return true
		default:
			return false
		}
	}
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-w.drainCh:
			// Idle drain: nothing in flight, deregister immediately.
			wr.send(&message{Kind: kindGoodbye})
			return nil
		case ev := <-frames:
			if ev.err != nil {
				return fmt.Errorf("distjoin: worker %s: control channel: %w", w.name, ev.err)
			}
			switch ev.m.Kind {
			case kindShutdown:
				return nil

			case kindAssignSweep:
				day := ev.m.Day
				agg, sweep, fail := sess.SweepDayAttempt(ctx, day, scratch, w.beforeSweep)
				scratch = nil
				var reply *message
				switch {
				case fail != nil:
					reply = &message{Kind: kindTaskFailed, Day: day, Reason: fail.Reason, Stack: fail.Stack}
				case agg == nil:
					return ctx.Err() // cancelled mid-sweep: crash path
				default:
					var sum string
					var err error
					if image, sum, err = daystore.AppendDay(image[:0], day, agg); err != nil {
						return fmt.Errorf("distjoin: worker %s: sealing day %d: %w", w.name, int32(day), err)
					}
					agg.Reset()
					scratch = agg
					reply = &message{Kind: kindSweepDone, Day: day, Image: image, SHA256: sum, Metrics: sweep}
				}
				// send copies the image into its frame, so the buffer is
				// free again when it returns
				if err := wr.send(reply); err != nil {
					return fmt.Errorf("distjoin: worker %s: reporting day %d: %w", w.name, int32(day), err)
				}

			case kindJoinSetup:
				if err := daystore.Clear(spool); err != nil {
					return fmt.Errorf("distjoin: worker %s: clearing spool: %w", w.name, err)
				}
				m := ev.m
				setup, installed = &m, 0

			case kindDayFile:
				// A day file is trusted only after the same checks a local
				// seal passes by construction; a damaged one (ErrCorrupt)
				// ends this worker and the coordinator reassigns its ranges.
				if _, err := daystore.Install(spool, ev.m.Day, ev.m.Image, ev.m.SHA256); err != nil {
					return fmt.Errorf("distjoin: worker %s: installing day %d: %w", w.name, int32(ev.m.Day), err)
				}
				installed++

			case kindAssignJoin:
				if setup == nil || installed != setup.NumDays {
					return fmt.Errorf("distjoin: worker %s: join range assigned before setup completed (%d day files)", w.name, installed)
				}
				if pipe == nil {
					set, err := daystore.Open(spool)
					if err != nil {
						return fmt.Errorf("distjoin: worker %s: opening spool: %w", w.name, err)
					}
					defer set.Close()
					pipe = sess.NewPipeline(nil, setup.Quarantined, w.reg, core.WithDayStore(set))
					if got := pipe.JoinShardCount(sess.Attacks); got != setup.NumShards {
						// The worker's deterministic plan disagrees with the
						// coordinator's — a config/world skew no retry can fix.
						return fmt.Errorf("distjoin: worker %s: join plan mismatch: local %d shards, coordinator %d",
							w.name, got, setup.NumShards)
					}
				}
				idx := ev.m.Range
				from, to := rangeBounds(setup.NumShards, setup.NumRanges, idx)
				events, jerr := joinRangeIsolated(ctx, pipe, sess, from, to)
				var reply *message
				if jerr != nil {
					reply = &message{Kind: kindTaskFailed, Range: idx, Reason: jerr.reason, Stack: jerr.stack}
				} else {
					reply = &message{Kind: kindJoinDone, Range: idx, Events: events}
				}
				if err := wr.send(reply); err != nil {
					return fmt.Errorf("distjoin: worker %s: reporting range %d: %w", w.name, idx, err)
				}

			case kindHeartbeat, kindWelcome:
				// coordinator-side noise; ignore
			}
			if draining() {
				wr.send(&message{Kind: kindGoodbye})
				return nil
			}
		}
	}
}

// joinFailure carries a join-range failure in quarantine shape.
type joinFailure struct {
	reason string
	stack  string
}

// joinRangeIsolated runs one shard-range join with the same panic
// isolation a sweep attempt gets: a panic anywhere in the engine becomes
// a reported failure, not a dead worker. That includes the day store's
// refusal of a spool file gone bad since Install, which JoinShardRange
// re-raises here (core.DayStore's contract;
// TestJoinRangeRefusalIsAFailure in dayfile_test.go).
func joinRangeIsolated(ctx context.Context, pipe *core.Pipeline, sess *study.Session, from, to int) (events []core.TaggedEvent, jf *joinFailure) {
	defer func() {
		if r := recover(); r != nil {
			events = nil
			jf = &joinFailure{reason: fmt.Sprintf("panic: %v", r), stack: string(debug.Stack())}
		}
	}()
	ev, err := pipe.JoinShardRange(ctx, sess.Attacks, from, to)
	if err != nil {
		return nil, &joinFailure{reason: err.Error()}
	}
	return ev, nil
}
