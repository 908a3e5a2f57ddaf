package study

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"dnsddos/internal/checkpoint"
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
	// workers overrides Config.Parallelism for the sweep worker pool
	// (0 = use the config).
	workers int
	// indexCacheSize bounds the join engine's LRU day-snapshot cache
	// (0 = engine default, negative = unbounded).
	indexCacheSize int
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

// WithWorkers overrides Config.Parallelism for the sweep worker pool.
func WithWorkers(n int) Option {
	return func(o *options) { o.workers = n }
}

// WithIndexCacheSize bounds the join engine's LRU day-snapshot cache
// (core.WithDayCacheSize); 0 keeps the engine default.
func WithIndexCacheSize(n int) Option {
	return func(o *options) { o.indexCacheSize = n }
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

// QuarantinedDays returns just the skipped days, ascending.
func (r *RunReport) QuarantinedDays() []clock.Day {
	out := make([]clock.Day, len(r.SkippedDays))
	for i := range r.SkippedDays {
		out[i] = r.SkippedDays[i].Day
	}
	return out
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
	s := &Study{Config: cfg, Metrics: opts.metrics}
	if s.Metrics == nil {
		s.Metrics = obs.New()
	}
	stage := stageTimer(s.Metrics)

	sess, err := NewSession(ctx, cfg, s.Metrics)
	if err != nil {
		return nil, err
	}
	s.attachSession(sess)
	s.Agg = sess.NewAggregator()

	var ckpt *checkpoint.Dir
	done := make(map[clock.Day]bool)
	if opts.checkpointDir != "" {
		hash, err := ConfigHash(cfg)
		if err != nil {
			return nil, err
		}
		hdr := checkpoint.Header{ConfigHash: hash, Seed: cfg.MeasureSeed}
		if opts.resume {
			if ckpt, err = checkpoint.Resume(opts.checkpointDir, hdr); err != nil {
				return nil, err
			}
			// Day records are content-hash references to sealed column
			// files. Verify every referenced file before trusting it — a
			// swapped or rotted seal is refused (daystore.ErrCorrupt),
			// never silently re-swept. Nothing is re-aggregated: the join
			// reads the sealed files directly.
			refs, err := ckpt.LoadDayRefs(cfg.FromDay, cfg.ToDay)
			if err != nil {
				return nil, err
			}
			for d, ref := range refs {
				if err := daystore.VerifyFile(opts.daystoreDir, ref.File, ref.SHA256); err != nil {
					return nil, fmt.Errorf("study: resuming day %s: %w", d, err)
				}
				done[d] = true
			}
			s.Report.ResumedDays = len(refs)
		} else if ckpt, err = checkpoint.Create(opts.checkpointDir, hdr); err != nil {
			return nil, err
		}
	}
	if opts.daystoreDir != "" && len(done) == 0 {
		// Fresh sealing run (or a resume that restored nothing): sealed
		// files from previous runs are stale state, like the checkpoint
		// Create cleanup.
		if err := daystore.Clear(opts.daystoreDir); err != nil {
			return nil, err
		}
	}

	t0 := time.Now()
	if err := s.runSweepsSupervised(ctx, opts, ckpt, done); err != nil {
		return nil, err
	}
	stage("sweep", t0)

	t0 = time.Now()
	// zero values keep the engine defaults
	pipeOpts := []core.Option{core.WithDayCacheSize(opts.indexCacheSize), core.WithShardBits(opts.shardBits)}
	if opts.daystoreDir != "" {
		set, err := daystore.Open(opts.daystoreDir)
		if err != nil {
			return nil, err
		}
		pipeOpts = append(pipeOpts, core.WithDayStore(set))
	}
	s.Pipeline = sess.NewPipeline(s.Agg, s.Report.QuarantinedDays(), s.Metrics, pipeOpts...)
	if !opts.skipJoin {
		s.Classified = s.Pipeline.Classify(s.Attacks)
		var err error
		if s.Events, err = s.Pipeline.EventsContext(ctx, s.Attacks); err != nil {
			return nil, err
		}
	}
	stage("join", t0)
	snap := s.Metrics.StableSnapshot()
	s.Report.Metrics = &snap
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

// sweepMetrics is the deterministic per-shard instrument set: outcome
// counters and the simulated-RTT histogram under study.sweep.* names.
// Each shard observes into a private registry that merges into the
// run's registry only when the shard completes, so a panicking attempt
// that half-swept a day cannot double-count after its retry.
type sweepMetrics struct {
	ok       *obs.Counter
	servfail *obs.Counter
	timeout  *obs.Counter
	rtt      *obs.Histogram
}

func newSweepMetrics(reg *obs.Registry) sweepMetrics {
	return sweepMetrics{
		ok:       reg.Counter("study.sweep.ok"),
		servfail: reg.Counter("study.sweep.servfail"),
		timeout:  reg.Counter("study.sweep.timeout"),
		rtt:      reg.Histogram("study.sweep.rtt"),
	}
}

// observe folds one sweep record into the shard's metrics. The RTT is
// simulated (seeded data plane), so the histogram is deterministic.
func (m sweepMetrics) observe(rec openintel.Record) {
	switch rec.Status {
	case nsset.StatusOK:
		m.ok.Inc()
		m.rtt.Observe(rec.RTT)
	case nsset.StatusServFail:
		m.servfail.Inc()
	default:
		m.timeout.Inc()
	}
}

// runSweepsSupervised runs the daily sweeps as independent day-shards
// under a bounded worker pool. Each shard sweeps into a private
// aggregator; on success the result is sealed and journaled (with a
// day-store directory) or merged into the run aggregator — in whatever
// order shards complete, which is safe because the merge is commutative.
// Days already restored from checkpoints (done) are not re-run.
func (s *Study) runSweepsSupervised(ctx context.Context, opts options, ckpt *checkpoint.Dir, done map[clock.Day]bool) error {
	from, to := s.Config.FromDay, s.Config.ToDay
	if to < from {
		return nil
	}
	days := make([]clock.Day, 0, int(to-from)+1)
	for d := from; d <= to; d++ {
		if !done[d] {
			days = append(days, d)
		}
	}
	if len(days) == 0 {
		return ctx.Err()
	}
	par := opts.workers
	if par <= 0 {
		par = s.Config.Parallelism
	}
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > len(days) {
		par = len(days)
	}

	var (
		mu      sync.Mutex // guards s.Agg, s.Report and ckptErr
		wg      sync.WaitGroup
		ckptErr error
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
		failed := ckptErr != nil
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
			agg, sreg, skipped := s.runDayShard(ctx, day, opts)
			s.Metrics.Histogram("study.day_sweep_wall", obs.Volatile()).Observe(time.Since(shardStart))
			mu.Lock()
			defer mu.Unlock()
			switch {
			case skipped != nil:
				s.Report.SkippedDays = append(s.Report.SkippedDays, *skipped)
			case agg != nil:
				if opts.daystoreDir == "" {
					s.Agg.Merge(agg)
				} else if ckptErr == nil {
					// Seal the day to disk and drop the structs — the join
					// reads the sealed file, so the run aggregator never
					// grows with completed days (flat RSS). The journal,
					// when enabled, records only a content-hash reference
					// to the seal.
					wstart := time.Now()
					ref, err := daystore.SealDay(opts.daystoreDir, day, agg.Snapshot())
					if err != nil {
						ckptErr = err
						return
					}
					if ckpt != nil {
						if err := ckpt.WriteDayRef(day, checkpoint.DayRef{File: ref.Name, SHA256: ref.SHA256}); err != nil {
							ckptErr = err
							return
						}
					}
					s.Metrics.Histogram("study.daystore_seal_wall", obs.Volatile()).Observe(time.Since(wstart))
				}
				s.Metrics.Merge(sreg)
				s.Report.CompletedDays++
			}
			// agg == nil && skipped == nil: shard abandoned on
			// cancellation; the day stays un-checkpointed and re-runs
			// on resume.
		}(day)
	}
	wg.Wait()
	sort.Slice(s.Report.SkippedDays, func(i, j int) bool {
		return s.Report.SkippedDays[i].Day < s.Report.SkippedDays[j].Day
	})
	if ckptErr != nil {
		return fmt.Errorf("study: writing checkpoint: %w", ckptErr)
	}
	return ctx.Err()
}

// runDayShard sweeps one day with isolation: a panicking attempt is
// retried once, then quarantined; a watchdog timeout quarantines
// immediately (retrying a stuck sweep would just double the stall). A
// (nil, nil, nil) return means the shard was abandoned because ctx was
// cancelled. On success the shard's private metric registry rides along
// so the caller can merge it exactly once.
func (s *Study) runDayShard(ctx context.Context, day clock.Day, opts options) (*nsset.Aggregator, *obs.Registry, *SkippedDay) {
	const maxAttempts = 2
	for attempt := 1; ; attempt++ {
		if ctx.Err() != nil {
			return nil, nil, nil
		}
		agg, sreg, sk := s.sweepDayOnce(ctx, day, opts)
		if sk == nil {
			return agg, sreg, nil // completed, or (nil, nil, nil) when cancelled
		}
		sk.Attempts = attempt
		if strings.HasPrefix(sk.Reason, "watchdog") || attempt == maxAttempts {
			return nil, nil, sk
		}
	}
}

// sweepDayOnce runs a single attempt (Session.SweepDayAttempt), under
// the watchdog when enabled.
func (s *Study) sweepDayOnce(ctx context.Context, day clock.Day, opts options) (*nsset.Aggregator, *obs.Registry, *SkippedDay) {
	if opts.shardTimeout <= 0 {
		return s.session.SweepDayAttempt(ctx, day, opts.beforeDay)
	}
	dctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type result struct {
		agg  *nsset.Aggregator
		sreg *obs.Registry
		sk   *SkippedDay
	}
	ch := make(chan result, 1)
	go func() {
		a, sreg, sk := s.session.SweepDayAttempt(dctx, day, opts.beforeDay)
		ch <- result{a, sreg, sk}
	}()
	timer := time.NewTimer(opts.shardTimeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.agg, r.sreg, r.sk
	case <-timer.C:
		// Cancel the shard's context so a cooperative sweep exits
		// promptly; a truly wedged goroutine is abandoned (it owns a
		// private aggregator and registry nobody will read).
		cancel()
		return nil, nil, &SkippedDay{
			Day:    day,
			Reason: fmt.Sprintf("watchdog: day-shard exceeded %v", opts.shardTimeout),
		}
	}
}
