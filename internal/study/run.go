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
	"time"

	"dnsddos/internal/clock"
	"dnsddos/internal/core"
	"dnsddos/internal/daystore"
	"dnsddos/internal/nsset"
	"dnsddos/internal/obs"
	"dnsddos/internal/openintel"
)

// run.go is the supervised run loop: RunContext executes the study as
// independent per-day shards under a worker pool, with cooperative
// cancellation, per-shard panic isolation (retry once, then quarantine),
// an optional watchdog deadline, and durable per-day checkpoints so a
// killed run resumes from the last completed day (DESIGN §3.2).

// options tunes the supervised run loop; the zero value runs without
// checkpoints or watchdog, days merged in memory. Callers set
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
	// shardBits is the victim-prefix width the join engine shards by
	// (0 = engine default /16).
	shardBits int
	// daystoreDir is where completed day-shards are sealed as columnar
	// files (DESIGN §3.9) instead of being merged into the run
	// aggregator; the join then reads the sealed files through
	// core.WithDayStore — flat RSS at millions-of-domains scale. Empty
	// with a checkpoint directory means <checkpointDir>/days; empty
	// without one keeps the days in memory.
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
// the shard's panic isolation (progress reporting, fault injection).
func WithBeforeDay(f func(clock.Day)) Option {
	return func(o *options) { o.beforeDay = f }
}

// WithMetrics observes the run into reg so a live /metrics.json can
// serve it mid-run; nil keeps the default private registry.
func WithMetrics(reg *obs.Registry) Option {
	return func(o *options) { o.metrics = reg }
}

// WithShardBits sets the victim-prefix width the join engine shards by
// (core.WithShardBits); 0 keeps the engine default of /16.
func WithShardBits(bits int) Option {
	return func(o *options) { o.shardBits = bits }
}

// WithDayStoreDir seals every completed day-shard into a columnar day
// file in dir (internal/daystore) and joins against the sealed files
// through core.WithDayStore instead of merging day snapshots into one
// in-memory aggregator — the out-of-core path that keeps RSS flat at
// millions-of-domains scale. A fresh run clears stale sealed files from
// dir. Output is byte-identical to the in-memory path
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
// parallelism shards work but never changes results (the merge is
// commutative), so a run may legitimately resume on different hardware.
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
	s := sess.NewStudy(reg)
	ledger, err := OpenLedger(cfg, reg, opts.checkpointDir, opts.daystoreDir, opts.resume)
	if err != nil {
		return nil, err
	}

	t0 := time.Now()
	if err := s.runSweeps(ctx, opts, ledger); err != nil {
		return nil, err
	}
	stage("sweep", t0)

	t0 = time.Now()
	// a zero value keeps the engine default
	pipeOpts := []core.Option{core.WithShardBits(opts.shardBits)}
	if opts.daystoreDir != "" {
		set, err := daystore.Open(opts.daystoreDir)
		if err != nil {
			return nil, err
		}
		pipeOpts = append(pipeOpts, core.WithDayStore(set))
	}
	s.Pipeline = sess.NewPipeline(s.Agg, ledger.Quarantined(), reg, pipeOpts...)
	if !opts.skipJoin {
		s.Classified = s.Pipeline.Classify(s.Attacks)
		if s.Events, err = s.Pipeline.EventsContext(ctx, s.Attacks); err != nil {
			return nil, err
		}
	}
	stage("join", t0)
	s.Report = ledger.Report()
	return s, nil
}

// stageTimer returns a closure recording wall-clock stage durations as
// volatile gauges (study.stage.<name>_wall_ns) — visible on a live
// /metrics.json, excluded from the deterministic stable snapshot.
func stageTimer(reg *obs.Registry) func(name string, since time.Time) {
	return func(name string, since time.Time) {
		reg.Gauge("study.stage."+name+"_wall_ns", obs.Volatile()).Set(int64(time.Since(since)))
	}
}

// sweepCounts is the deterministic per-shard instrument set: outcome
// counts and the simulated-RTT histogram, kept in plain integers while
// the day is swept — the shard is one goroutine — and registered under
// the study.sweep.* names once, when the sweep returns. The snapshot
// merges into the run's registry only when the shard completes, so a
// panicking attempt that half-swept a day cannot double-count after its
// retry.
type sweepCounts struct {
	ok, servfail, timeout int64
	rtt                   obs.LocalHistogram
}

// observe folds one sweep record into the shard's counts. The RTT is
// simulated (seeded data plane), so the histogram is deterministic.
func (c *sweepCounts) observe(rec openintel.Record) {
	switch rec.Status {
	case nsset.StatusOK:
		c.ok++
		c.rtt.Observe(rec.RTT)
	case nsset.StatusServFail:
		c.servfail++
	default:
		c.timeout++
	}
}

// snapshot is the counts as the metrics a shard ships.
func (c *sweepCounts) snapshot() obs.Snapshot {
	reg := obs.New()
	reg.Counter("study.sweep.ok").Add(c.ok)
	reg.Counter("study.sweep.servfail").Add(c.servfail)
	reg.Counter("study.sweep.timeout").Add(c.timeout)
	reg.Histogram("study.sweep.rtt").Fold(&c.rtt)
	return reg.Snapshot()
}

// dayScratch is what a day-shard of a sealed run works in and leaves
// behind empty: the aggregator whose day table the sweep fills and the
// buffer the day's file image is encoded into.
type dayScratch struct {
	agg   *nsset.Aggregator
	image []byte
}

// runSweeps runs the ledger's pending days as independent day-shards under
// a bounded worker pool. Each shard sweeps into a private aggregator; on
// success the day is sealed straight from its table (with a day-store
// directory) and handed to the ledger, or accepted by the ledger and
// merged into the run aggregator — in whatever order shards complete,
// which is safe because the merge is commutative. A sealed run recycles
// the aggregator and the image buffer of a completed shard through a free
// list, at most one pair per worker, so it allocates a day table per
// worker, not per day.
func (s *Study) runSweeps(ctx context.Context, opts options, ledger *Ledger) error {
	days := ledger.Pending()
	if len(days) == 0 {
		return ctx.Err()
	}
	par := s.Config.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > len(days) {
		par = len(days)
	}

	var (
		mu   sync.Mutex // guards ledger, s.Agg and free
		wg   sync.WaitGroup
		free []dayScratch
	)
	sem := make(chan struct{}, par)
dispatch:
	for _, day := range days {
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			break dispatch
		}
		mu.Lock()
		failed := ledger.Err() != nil
		var sc dayScratch
		if n := len(free); n > 0 {
			sc, free = free[n-1], free[:n-1]
		}
		mu.Unlock()
		if failed {
			<-sem
			break
		}
		wg.Add(1)
		go func(day clock.Day) {
			defer wg.Done()
			defer func() { <-sem }()
			shardStart := time.Now()
			agg, sweep := s.runDayShard(ctx, day, opts, &mu, ledger, sc.agg)
			s.Metrics.Histogram("study.day_sweep_wall", obs.Volatile()).Observe(time.Since(shardStart))
			if agg == nil {
				// Quarantined (the ledger has it), or abandoned on
				// cancellation: the day stays un-journaled and re-runs on
				// resume.
				return
			}
			var file daystore.SealedFile
			if opts.daystoreDir != "" {
				// Seal the day to disk and empty the table — the join reads
				// the sealed file, so the run aggregator never grows with
				// completed days (flat RSS). The seal's fsyncs run before
				// the lock is taken, so shards flush in parallel.
				wstart := time.Now()
				var err error
				if file, sc.image, err = daystore.SealTable(opts.daystoreDir, day, agg, sc.image); err != nil {
					mu.Lock()
					ledger.Abort(err)
					mu.Unlock()
					return
				}
				s.Metrics.Histogram("study.daystore_seal_wall", obs.Volatile()).Observe(time.Since(wstart))
				agg.Reset()
			}
			mu.Lock()
			defer mu.Unlock()
			dup, err := ledger.Complete(day, file, sweep)
			switch {
			case opts.daystoreDir != "":
				free = append(free, dayScratch{agg: agg, image: sc.image})
			case err == nil && !dup:
				s.Agg.Merge(agg)
			}
		}(day)
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
// because ctx was cancelled. On success the shard's private sweep metrics
// ride along so the ledger can fold them exactly once.
func (s *Study) runDayShard(ctx context.Context, day clock.Day, opts options, mu *sync.Mutex, ledger *Ledger, scratch *nsset.Aggregator) (*nsset.Aggregator, obs.Snapshot) {
	for ctx.Err() == nil {
		agg, sweep, f := s.sweepDayOnce(ctx, day, opts, scratch)
		if f == nil {
			return agg, sweep // completed, or nil when cancelled
		}
		scratch = nil
		mu.Lock()
		retry := ledger.Fail(day, f.Reason, f.Stack, f.Retryable)
		mu.Unlock()
		if !retry {
			break
		}
	}
	return nil, obs.Snapshot{}
}

// sweepDayOnce runs a single attempt (Session.SweepDayAttempt) into
// scratch, under the watchdog when enabled.
func (s *Study) sweepDayOnce(ctx context.Context, day clock.Day, opts options, scratch *nsset.Aggregator) (*nsset.Aggregator, obs.Snapshot, *SweepFailure) {
	if opts.shardTimeout <= 0 {
		return s.session.SweepDayAttempt(ctx, day, scratch, opts.beforeDay)
	}
	dctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type result struct {
		agg   *nsset.Aggregator
		sweep obs.Snapshot
		f     *SweepFailure
	}
	ch := make(chan result, 1)
	go func() {
		a, sweep, f := s.session.SweepDayAttempt(dctx, day, scratch, opts.beforeDay)
		ch <- result{a, sweep, f}
	}()
	timer := time.NewTimer(opts.shardTimeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.agg, r.sweep, r.f
	case <-timer.C:
		// Cancel the shard's context so a cooperative sweep exits
		// promptly; a truly wedged goroutine is abandoned (it owns an
		// aggregator nobody will read or recycle). Not retryable:
		// re-running a stuck sweep would just double the stall.
		cancel()
		return nil, obs.Snapshot{}, &SweepFailure{
			Reason: fmt.Sprintf("watchdog: day-shard exceeded %v", opts.shardTimeout),
		}
	}
}
