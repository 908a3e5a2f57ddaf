package study

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dnsddos/internal/clock"
	"dnsddos/internal/daystore"
	"dnsddos/internal/nsset"
	"dnsddos/internal/obs"
	"dnsddos/internal/openintel"
)

// run.go is the supervised run loop: RunContext executes the study as
// independent per-day shards on long-lived workers, with cooperative
// cancellation, per-shard panic isolation (retry once, then quarantine),
// an optional watchdog deadline, and durable per-day checkpoints so a
// killed run resumes from the last completed day (DESIGN §3.2).

// options tunes the supervised run loop; the zero value runs without
// checkpoints or watchdog, days sealed in memory. Callers set
// fields through the With... functional options, so new knobs never
// break RunContext call sites.
type options struct {
	// checkpointDir, when non-empty, journals every completed day-shard
	// in this directory (internal/checkpoint) as a content-hash reference
	// to the day's sealed column file.
	checkpointDir string
	// resume restarts from the checkpoints in checkpointDir instead of
	// day 0. The directory's header (config hash + seed) must match the
	// current configuration; a mismatch is refused with an error.
	resume bool
	// shardTimeout is the per-day-shard watchdog deadline: a sweep that
	// exceeds it is cancelled and quarantined instead of hanging the
	// whole run. Zero disables the watchdog.
	shardTimeout time.Duration
	// beforeDay, when set, runs at the start of every day-shard attempt,
	// inside the shard's panic isolation. It exists for progress
	// reporting and fault injection (the chaos suite panics or stalls
	// here); a panic in the hook quarantines the day like any other.
	beforeDay func(clock.Day)
	// metrics, when non-nil, receives the run's observations under
	// study.* and core.join.* names so a cmd can serve them over
	// -metrics-addr while the run is in flight. Nil makes the run
	// observe into a private registry; either way the deterministic
	// subset ends up in RunReport.Metrics. Sweep outcome counts and
	// simulated RTTs are stable (seeded data plane, commutative merge);
	// wall-clock timings and join-engine internals register as volatile
	// and stay out of the stable snapshot.
	metrics *obs.Registry
	// daystoreDir is where completed day-shards are sealed as columnar
	// files (DESIGN §3.9) for the join to map — flat RSS at
	// millions-of-domains scale. Empty with a checkpoint directory means
	// <checkpointDir>/days; empty without one keeps the sealed images in
	// memory.
	daystoreDir string
	// skipJoin builds the join pipeline but skips the final batch
	// classify+join pass: Study.Classified and Study.Events stay empty.
	// The streaming service uses this — it joins window-by-window itself
	// and only needs the world, measurements and pipeline.
	skipJoin bool
}

// Option configures one RunContext knob.
type Option func(*options)

// WithCheckpointDir journals every completed day-shard in dir
// (internal/checkpoint). A day is persisted in one form only — its sealed
// column file — so the journal records a content-hash reference
// (checkpoint.DayRef) to the file in the day-store directory, which
// defaults to dir/days when WithDayStoreDir is not given. WithResume
// verifies every referenced file before trusting it and refuses the
// resume with a typed daystore.ErrCorrupt error on any mismatch.
func WithCheckpointDir(dir string) Option {
	return func(o *options) { o.checkpointDir = dir }
}

// WithResume restarts from the checkpoints in the checkpoint directory
// instead of day 0; the directory's header (config hash + seed) must
// match the current configuration.
func WithResume(resume bool) Option {
	return func(o *options) { o.resume = resume }
}

// WithShardTimeout arms the per-day-shard watchdog: a sweep exceeding d
// is cancelled and quarantined instead of hanging the run.
func WithShardTimeout(d time.Duration) Option {
	return func(o *options) { o.shardTimeout = d }
}

// WithBeforeDay runs f at the start of every day-shard attempt, inside
// the shard's panic isolation (progress reporting, fault injection). No
// command sets it; the tests of study and core inject sweep
// faults and count attempts through it.
func WithBeforeDay(f func(clock.Day)) Option {
	return func(o *options) { o.beforeDay = f }
}

// WithMetrics observes the run into reg so a live /metrics.json can
// serve it mid-run; nil keeps the default private registry.
func WithMetrics(reg *obs.Registry) Option {
	return func(o *options) { o.metrics = reg }
}

// WithDayStoreDir seals every completed day-shard into a columnar day
// file in dir (internal/daystore) and joins against the mapped files
// instead of images held in memory — the out-of-core path that keeps RSS
// flat at millions-of-domains scale. A fresh run clears stale sealed
// files from dir. Output is byte-identical to the in-memory path
// (TestJoinParityColumnar).
func WithDayStoreDir(dir string) Option {
	return func(o *options) { o.daystoreDir = dir }
}

// WithSkipJoin skips the final batch classify+join pass (Study.Classified
// and Study.Events stay empty) while still building Study.Pipeline over
// the swept measurements. Callers that join incrementally — the streaming
// pipeline — use this to avoid paying a full-feed join they will redo
// window by window.
func WithSkipJoin() Option {
	return func(o *options) { o.skipJoin = true }
}

// SkippedDay records one quarantined day-shard.
type SkippedDay struct {
	Day clock.Day
	// Reason is "panic: ..." or "watchdog: ...".
	Reason string
	// Stack is the shard goroutine's stack captured at the final panic
	// (empty for watchdog timeouts).
	Stack string
	// Attempts is how many times the shard was tried before quarantine.
	Attempts int
}

// RunReport summarizes what the supervised loop did: how many day-shards
// were restored from checkpoints, how many were swept this run, and
// which were quarantined.
type RunReport struct {
	ResumedDays   int
	CompletedDays int
	// SkippedDays lists quarantined day-shards in ascending day order.
	SkippedDays []SkippedDay
	// Metrics is the stable (deterministic) metric snapshot taken when
	// the run finished: sweep outcome counters and the simulated-RTT
	// histogram, but no wall-clock timings. Two runs of the same seeded
	// config produce byte-identical encodings of it. Days restored from
	// checkpoints contribute no observations — the snapshot covers the
	// work this run performed.
	Metrics *obs.Snapshot `json:",omitempty"`
}

// ConfigHash fingerprints a configuration for the checkpoint header. It
// hashes the JSON encoding with Parallelism normalized to zero:
// parallelism shards work but never changes results (each day is sealed
// on its own), so a run may legitimately resume on different hardware.
func ConfigHash(cfg Config) (string, error) {
	cfg.Parallelism = 0
	b, err := json.Marshal(cfg)
	if err != nil {
		return "", fmt.Errorf("study: hashing config: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// RunContext executes the full study under supervision. It cancels
// cleanly when ctx does (between phases, between day-shards, and every
// few hundred domains inside a sweep), checkpoints completed days when
// WithCheckpointDir is set, and isolates day-shard failures: a
// panicking day is retried once and then quarantined into
// Study.Report.SkippedDays with its stack, while the join falls back to
// the nearest earlier measurable day for quarantined days. The returned
// error is non-nil only for cancellation, invalid configuration, or
// checkpoint I/O failure — a panicking or stuck day-shard never fails
// the run.
func RunContext(ctx context.Context, cfg Config, optFns ...Option) (*Study, error) {
	var opts options
	for _, o := range optFns {
		o(&opts)
	}
	if opts.daystoreDir == "" && opts.checkpointDir != "" {
		opts.daystoreDir = filepath.Join(opts.checkpointDir, "days")
	}
	reg := opts.metrics
	if reg == nil {
		reg = obs.New()
	}
	stage := stageTimer(reg)

	sess, err := NewSession(ctx, cfg, reg)
	if err != nil {
		return nil, err
	}
	s := &Study{session: sess, Metrics: reg}
	ledger, err := openLedger(cfg, reg, opts.checkpointDir, opts.daystoreDir, opts.resume)
	if err != nil {
		return nil, err
	}
	defer ledger.Close()

	days := new(daystore.Set) // the sealed images, without a directory
	t0 := time.Now()
	if err := s.runSweeps(ctx, opts, ledger, days); err != nil {
		return nil, err
	}
	stage("sweep", t0)

	t0 = time.Now()
	if opts.daystoreDir != "" {
		if days, err = daystore.Open(opts.daystoreDir); err != nil {
			return nil, err
		}
	}
	if err := s.finish(ctx, opts, days, ledger); err != nil {
		return nil, err
	}
	stage("join", t0)
	return s, nil
}

// finish ends a run whose ledger has settled: it sweeps again the days a
// quarantine makes the join fall back to (widen), builds the pipeline over
// the sealed days with the ledger's quarantine, runs the batch classify
// and join unless the run skips it, and takes the ledger's report.
func (s *Study) finish(ctx context.Context, opts options, days *daystore.Set, ledger *dayLedger) error {
	if err := s.widen(ctx, opts, days, ledger); err != nil {
		return err
	}
	s.Pipeline = s.NewPipeline(days, ledger.Quarantined(), s.Metrics)
	if !opts.skipJoin {
		s.Classified = s.Pipeline.Classify(s.Attacks)
		var err error
		if s.Events, err = s.Pipeline.EventsContext(ctx, s.Attacks); err != nil {
			return err
		}
	}
	s.Report = ledger.Report()
	return nil
}

// widen is the run's second pass (DESIGN §3.2). A quarantined day has no
// sealed file, so the join reads each of its day rows on the day
// core.MeasurableDay falls back to, whose first sweep measured only that
// day's own demand. widen sweeps every such fallback day again with the
// NSSets of the quarantined days it stands for added
// (Session.sweepDayAttempt given them), hands the new image to the
// ledger, which journals, publishes and counts it (dayLedger.Reseal), and
// serves it from days. The added NSSets keep no window on the fallback day: a window
// kept there would have put them in the day's own demand. A resumed run
// does it again, with the same bytes. The beforeDay hook runs
// before each, as before every first-pass attempt; a panic fails the run,
// since the day swept cleanly once.
func (s *Study) widen(ctx context.Context, opts options, days *daystore.Set, ledger *dayLedger) error {
	for _, fb := range s.fallbackDemand(ledger.Quarantined()) {
		agg, base, extra, fail := s.sweepDayAttempt(ctx, fb.day, nil, fb.added, opts.beforeDay)
		switch {
		case fail != nil:
			return fmt.Errorf("study: sweeping day %s again for a quarantined day: %s", fb.day, fail.Reason)
		case agg == nil:
			return ctx.Err()
		}
		image, err := daystore.AppendDay(nil, fb.day, agg)
		if err == nil {
			err = ledger.Reseal(fb.day, image, base, extra)
		}
		if err == nil {
			err = days.Replace(fb.day, image)
		}
		if err != nil {
			return fmt.Errorf("study: re-sealing day %s: %w", fb.day, err)
		}
	}
	return nil
}

// stageTimer returns a closure recording wall-clock stage durations as
// volatile gauges (study.stage.<name>_wall_ns) — visible on a live
// /metrics.json, excluded from the deterministic stable snapshot.
func stageTimer(reg *obs.Registry) func(name string, since time.Time) {
	return func(name string, since time.Time) {
		reg.Gauge("study.stage."+name+"_wall_ns", obs.Volatile()).Set(int64(time.Since(since)))
	}
}

// sweepCounts is what a swept day counts besides its table: the outcome
// of every record, the simulated RTT of every answered one (seeded data
// plane, so the histogram is deterministic) and the domains the day's
// demand left unmeasured, so that OK + ServFail + Timeout + Skipped is
// the world's domain count. One goroutine sweeps a day, so the counts
// are plain integers; they travel as a value, returned by
// Session.sweepDayAttempt, and reach the run registry only when
// dayLedger.Complete accepts the day, so an attempt that panicked
// half-way through a day cannot double-count after its retry.
type sweepCounts struct {
	OK, ServFail, Timeout, Skipped int64
	RTT                            obs.LocalHistogram
}

// measured is how many records the counts hold.
func (c *sweepCounts) measured() int64 { return c.OK + c.ServFail + c.Timeout }

// observe folds one sweep record into the counts.
func (c *sweepCounts) observe(rec openintel.Record) {
	switch rec.Status {
	case nsset.StatusOK:
		c.OK++
		c.RTT.Observe(rec.RTT)
	case nsset.StatusServFail:
		c.ServFail++
	default:
		c.Timeout++
	}
}

// fold adds the counts to reg under the study.sweep.* names.
func (c *sweepCounts) fold(reg *obs.Registry) {
	reg.Counter("study.sweep.ok").Add(c.OK)
	reg.Counter("study.sweep.servfail").Add(c.ServFail)
	reg.Counter("study.sweep.timeout").Add(c.Timeout)
	reg.Counter("study.sweep.skipped").Add(c.Skipped)
	reg.Histogram("study.sweep.rtt").Fold(&c.RTT)
}

// runSweeps runs the ledger's pending days on at most Parallelism
// long-lived workers, each taking the next pending day by an atomic index
// until none is left, ctx is cancelled or the ledger has stopped on a write
// error. A worker sweeps a day into its own aggregator; on success the day
// is sealed straight from its table — into a file in the day-store
// directory or, without one, into an image of its own that mem keeps — and
// handed to the ledger, in whatever order days complete. The worker then
// empties the table and keeps it, with its image buffer, for its next day,
// so a run allocates a day table per worker, not per day.
func (s *Study) runSweeps(ctx context.Context, opts options, ledger *dayLedger, mem *daystore.Set) error {
	days := ledger.Pending()
	if len(days) == 0 {
		return ctx.Err()
	}
	par := s.Config.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	par = min(par, len(days))
	sweepWall := s.Metrics.Histogram("study.day_sweep_wall", obs.Volatile())
	sealWall := s.Metrics.Histogram("study.daystore_seal_wall", obs.Volatile())

	var (
		mu   sync.Mutex // guards ledger and mem
		next atomic.Int64
		wg   sync.WaitGroup
	)
	// take returns the next pending day, or false once the run stops
	// taking days.
	take := func() (clock.Day, bool) {
		i := next.Add(1) - 1
		if i >= int64(len(days)) || ctx.Err() != nil {
			return 0, false
		}
		mu.Lock()
		defer mu.Unlock()
		return days[i], ledger.Err() == nil
	}
	wg.Add(par)
	for range par {
		go func() {
			defer wg.Done()
			var (
				agg   *nsset.Aggregator // the table the next day fills; nil for a fresh one
				image []byte            // the buffer a file is encoded into
			)
			for {
				day, ok := take()
				if !ok {
					return
				}
				start := time.Now()
				var counts sweepCounts
				agg, counts = s.runDayShard(ctx, day, opts, &mu, ledger, agg)
				sweepWall.Observe(time.Since(start))
				if agg == nil {
					// Quarantined (the ledger has it), or abandoned on
					// cancellation: the day stays un-journaled and re-runs
					// on resume.
					continue
				}
				// Seal the day and empty the table. A file's fsyncs run
				// before the lock is taken, so workers flush in parallel;
				// an image mem keeps is never the worker's buffer.
				start = time.Now()
				var file daystore.SealedFile
				var kept []byte
				var err error
				if opts.daystoreDir != "" {
					file, image, err = daystore.SealTable(ledger.days, day, agg, image)
				} else {
					kept, err = daystore.AppendDay(nil, day, agg)
				}
				if err == nil {
					sealWall.Observe(time.Since(start))
					agg.Reset()
				}
				mu.Lock()
				if err == nil && opts.daystoreDir == "" {
					err = mem.Add(day, kept)
				}
				if err != nil {
					ledger.Abort(err)
				} else {
					ledger.Complete(day, file, counts)
				}
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := ledger.Err(); err != nil {
		return fmt.Errorf("study: writing checkpoint: %w", err)
	}
	return ctx.Err()
}

// runDayShard sweeps one day with isolation, charging each failed attempt
// to the ledger (under mu) and retrying for as long as it says to. The
// first attempt fills scratch (nil for a fresh aggregator); a failed
// attempt's aggregator is never used again — the watchdog may have left a
// goroutine writing to it — so a retry starts a fresh one. A nil
// aggregator means the day was quarantined, or the shard was abandoned
// because ctx was cancelled. On success the day's sweep counts ride along
// so the ledger can fold them exactly once.
func (s *Study) runDayShard(ctx context.Context, day clock.Day, opts options, mu *sync.Mutex, ledger *dayLedger, scratch *nsset.Aggregator) (*nsset.Aggregator, sweepCounts) {
	for ctx.Err() == nil {
		agg, counts, f := s.sweepDayOnce(ctx, day, opts, scratch)
		if f == nil {
			return agg, counts // completed, or nil when cancelled
		}
		scratch = nil
		mu.Lock()
		retry := ledger.Fail(day, f.Reason, f.Stack, f.Retryable)
		mu.Unlock()
		if !retry {
			break
		}
	}
	return nil, sweepCounts{}
}

// sweepDayOnce runs a single attempt (Session.sweepDayAttempt) into
// scratch, under the watchdog when enabled.
func (s *Study) sweepDayOnce(ctx context.Context, day clock.Day, opts options, scratch *nsset.Aggregator) (*nsset.Aggregator, sweepCounts, *sweepFailure) {
	if opts.shardTimeout <= 0 {
		agg, counts, _, f := s.sweepDayAttempt(ctx, day, scratch, nil, opts.beforeDay)
		return agg, counts, f
	}
	dctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type result struct {
		agg    *nsset.Aggregator
		counts sweepCounts
		f      *sweepFailure
	}
	ch := make(chan result, 1)
	go func() {
		a, counts, _, f := s.sweepDayAttempt(dctx, day, scratch, nil, opts.beforeDay)
		ch <- result{a, counts, f}
	}()
	timer := time.NewTimer(opts.shardTimeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.agg, r.counts, r.f
	case <-timer.C:
		// Cancel the shard's context so a cooperative sweep exits
		// promptly; a truly wedged goroutine is abandoned (it owns an
		// aggregator nobody will read or recycle). Not retryable:
		// re-running a stuck sweep would just double the stall.
		cancel()
		return nil, sweepCounts{}, &sweepFailure{
			Reason: fmt.Sprintf("watchdog: day-shard exceeded %v", opts.shardTimeout),
		}
	}
}
