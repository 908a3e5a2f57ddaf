package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dnsddos/internal/checkpoint"
	"dnsddos/internal/clock"
	"dnsddos/internal/core"
	"dnsddos/internal/daystore"
	"dnsddos/internal/dnsdb"
	"dnsddos/internal/nsset"
	"dnsddos/internal/obs"
	"dnsddos/internal/openintel"
	"dnsddos/internal/report"
	"dnsddos/internal/resolver"
	"dnsddos/internal/simnet"
	"dnsddos/internal/stats"
	"dnsddos/internal/study"
)

// study.go holds the two study workloads. Their operation is one whole
// study, configuration in, events CSV out: study_batch keeps swept days in
// memory and merges them (what cmd/joinpipe does by default), study_sealed
// seals every day to a column file, journals a reference to it and joins
// over the mapped files. Both must produce the same CSV bytes, so each
// workload ends with one run on the other one's backend as its oracle.

// Seed streams: one per consumer of randomness that --seed drives.
const (
	streamWorld = iota + 1
	streamSynth
	streamMeasure
	streamResolver
)

// attackSeed is the one input --seed does not draw (README.md's seed table
// and BENCHMARK.json's workload lines say so): the 17-month attack schedule
// is heavy-tailed in its own draws — a handful of long attacks on the
// biggest providers' nameservers decide how many windows the sweep retains —
// so re-drawing it moved allocations per study by 5-7% between seeds,
// against 1-2% when only the world, the telescope noise and every
// measurement are re-drawn. The victims still change with the seed, because
// the world they are picked from does.
const attackSeed = 7

func studyConfig(seed uint64, domains, providers, attacks, days int) study.Config {
	cfg := study.DefaultConfig()
	cfg.World.Seed = subSeed(seed, streamWorld)
	cfg.World.Domains = domains
	cfg.World.GenericProviders = providers
	cfg.Attacks.Seed = attackSeed
	cfg.Attacks.TotalAttacks = attacks
	cfg.Synth.Seed = subSeed(seed, streamSynth)
	cfg.MeasureSeed = subSeed(seed, streamMeasure)
	cfg.FromDay, cfg.ToDay = 0, clock.Day(days-1)
	cfg.Parallelism = cpuLimit
	return cfg
}

func runStudyBatch(e *env) error  { return runStudy(e, false) }
func runStudySealed(e *env) error { return runStudy(e, true) }

// studyOut is what one study run produced and cost.
type studyOut struct {
	hash        [sha256.Size]byte
	events      int
	quarantined int
	use         usage
}

// studyRun is the untraced operation: study.RunContext as the cmds call
// it, then the events CSV.
func studyRun(ctx context.Context, e *env, cfg study.Config, sealed bool) (studyOut, error) {
	var opts []study.Option
	if sealed {
		dir, err := e.workDir("sealed-")
		if err != nil {
			return studyOut{}, err
		}
		defer os.RemoveAll(dir)
		opts = append(opts,
			study.WithDayStoreDir(filepath.Join(dir, "days")),
			study.WithCheckpointDir(filepath.Join(dir, "ckpt")))
	}
	m := markUsage()
	s, err := study.RunContext(ctx, cfg, opts...)
	if err != nil {
		return studyOut{}, err
	}
	var csv bytes.Buffer
	if err := report.EventsCSV(&csv, s.Events); err != nil {
		return studyOut{}, err
	}
	out := studyOut{use: m.since(), hash: sha256.Sum256(csv.Bytes()), events: len(s.Events), quarantined: len(s.Report.SkippedDays)}
	// RunContext leaves the sealed days mapped for the pipeline it
	// returns; unmap them before their directory goes.
	if c, ok := s.Pipeline.DayStore().(io.Closer); ok {
		if err := c.Close(); err != nil {
			return studyOut{}, err
		}
	}
	return out, nil
}

func runStudy(e *env, sealed bool) error {
	ctx := context.Background()
	cfg := studyConfig(e.seed, e.sc.studyDomains, e.sc.studyProviders, e.sc.studyAttacks, e.sc.studyDays)

	// Set-up: what a study builds before it can sweep its first day — the
	// world, the attack schedule, the telescope feed and the attacks
	// inferred from it. Every operation builds its own again.
	var setups []usage
	for i := 0; i < e.sc.studySetups; i++ {
		m := markUsage()
		if _, err := study.NewSession(ctx, cfg, obs.New()); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, m.since())
	}
	e.setSetup(setups)

	// The first operation's CSV is the reference every other must
	// reproduce; the oracle below holds it to the other day backend.
	var ref *studyOut
	check := func(what string, hash [sha256.Size]byte, quarantined int) {
		e.attempted++
		switch {
		case hash != ref.hash:
			e.fail("%s: events CSV %x differs from reference %x", what, hash[:6], ref.hash[:6])
		case quarantined != 0:
			e.fail("%s: %d day-shards were quarantined", what, quarantined)
		}
	}

	var untraced []opCost
	var traced []studyTrace
	start := time.Now()
	for run := 0; run < 2 || time.Since(start) < e.budget; run++ {
		out, err := studyRun(ctx, e, cfg, sealed)
		if err != nil {
			return err
		}
		if ref == nil {
			if out.events == 0 {
				return fmt.Errorf("the study produced no events; the CSV check would be vacuous")
			}
			ref = &out
			e.logf("%s: reference csv %x (%d events)", e.workload, ref.hash[:6], ref.events)
		}
		check("untraced run", out.hash, out.quarantined)
		untraced = append(untraced, out.use.perOp(out.use.wall, 1))
		e.logf("%s: run %d wall %.0fms cpu %.0fms steal %.0fms", e.workload, run, out.use.wall.Seconds()*1e3, out.use.cpu.Seconds()*1e3, out.use.steal.Seconds()*1e3)
		if e.traced {
			// Alternate with the untraced operation so both passes see
			// the same machine conditions.
			st, err := studyTraced(ctx, e, cfg, sealed, run)
			if err != nil {
				return err
			}
			check("traced re-composition", st.hash, 0)
			traced = append(traced, st)
		}
	}

	e.set("peak_rss_mb", peakRSSMB())

	// The oracle runs last, so that its memory stays out of peak_rss_mb.
	oracle, err := studyRun(ctx, e, cfg, !sealed)
	if err != nil {
		return fmt.Errorf("oracle run: %w", err)
	}
	check("other day backend", oracle.hash, oracle.quarantined)

	e.setOpMetrics(untraced)
	if e.traced {
		studyLayers(e, traced)
	}
	return nil
}

// sampleEvery is how many transport queries share one timed sample: a
// sweep issues millions of sub-microsecond queries, and timing each one would
// cost as much as the query.
const sampleEvery = 8

// timedTransport times the resolver's calls into the data plane.
type timedTransport struct {
	inner            resolver.Transport
	queries, sampled int64
	sampledTime      time.Duration
}

func (t *timedTransport) Query(rng *rand.Rand, id dnsdb.NameserverID, at time.Time) (nsset.QueryStatus, time.Duration) {
	t.queries++
	if t.queries%sampleEvery != 0 {
		return t.inner.Query(rng, id, at)
	}
	t0 := time.Now()
	st, rtt := t.inner.Query(rng, id, at)
	t.sampledTime += time.Since(t0)
	t.sampled++
	return st, rtt
}

// take returns the estimated time of all queries since the last take and
// their count, and resets both.
func (t *timedTransport) take() (time.Duration, int64) {
	var d time.Duration
	if t.sampled > 0 {
		d = time.Duration(float64(t.sampledTime) * float64(t.queries) / float64(t.sampled))
	}
	n := t.queries
	t.queries, t.sampled, t.sampledTime = 0, 0, 0
	return d, n
}

func mallocCount() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// studyTrace is the counts one traced study run saw; its times are in the
// tracer under the run's id.
type studyTrace struct {
	run  int
	hash [sha256.Size]byte
	use  usage

	domains, obsWindows, attacks   int
	records, failedRecords         int64
	queries                        int64
	addAllocs                      uint64
	keys, windows                  int
	sealBytes                      int64
	journalRecords                 int
	events, dnsAttacks             int
	csvBytes                       int
	cacheHits, cacheMisses, shared int64
}

// studyTraced re-composes one study run from the layers' public calls, in
// one goroutine, with a span around each call. It sweeps a day without an
// aggregator, capturing the records, and then adds them itself, so the
// sweep (resolver + data plane) and nsset.Add are timed apart without
// doing either twice.
func studyTraced(ctx context.Context, e *env, cfg study.Config, sealed bool, run int) (studyTrace, error) {
	tr := e.tr
	st := studyTrace{run: run}
	var dsDir, journalDir string
	if sealed {
		dir, err := e.workDir("traced-")
		if err != nil {
			return st, err
		}
		defer os.RemoveAll(dir)
		dsDir, journalDir = filepath.Join(dir, "days"), filepath.Join(dir, "ckpt")
	}

	m := markUsage()
	op := tr.begin("study.run", noSpan, run)
	call := func(name string, f func()) {
		id := tr.begin(name, op, run)
		f()
		tr.end(id)
	}

	reg := obs.New()
	id := tr.begin("study.NewSession", op, run)
	sess, err := study.NewSession(ctx, cfg, reg)
	tr.end(id)
	if err != nil {
		return st, err
	}
	// NewSession times its two phases into the registry it is handed.
	gen := time.Duration(reg.Gauge("study.stage.generate_wall_ns", obs.Volatile()).Load())
	infer := time.Duration(reg.Gauge("study.stage.infer_wall_ns", obs.Volatile()).Load())
	tr.child("scenario.generate", id, 0, gen)
	tr.child("rsdos.Infer", id, gen, infer)

	var tt *timedTransport
	var eng *openintel.Engine
	call("simnet.New", func() {
		tt = &timedTransport{inner: simnet.New(cfg.Net, sess.World.DB, sess.Schedule.Sched, sess.Schedule.Blackouts...)}
	})
	call("openintel.NewEngine", func() {
		eng = openintel.NewEngine(sess.World.DB, resolver.New(cfg.Resolver, sess.World.DB, tt), cfg.MeasureSeed)
	})
	var journal *checkpoint.Dir
	if sealed {
		hash, err := study.ConfigHash(cfg)
		if err != nil {
			return st, err
		}
		call("checkpoint.Create", func() {
			journal, err = checkpoint.Create(journalDir, checkpoint.Header{ConfigHash: hash, Seed: cfg.MeasureSeed})
		})
		if err != nil {
			return st, err
		}
	}

	runAgg := sess.NewAggregator()
	recs := make([]openintel.Record, 0, len(sess.World.DB.Domains))
	for day := cfg.FromDay; day <= cfg.ToDay; day++ {
		recs = recs[:0]
		id := tr.begin("openintel.RunDayContext", op, run)
		err := eng.RunDayContext(ctx, day, nil, func(r openintel.Record) { recs = append(recs, r) })
		tr.end(id)
		if err != nil {
			return st, err
		}
		d, n := tt.take()
		tr.child("simnet.Query", id, 0, d)
		st.queries += n

		dayAgg := sess.NewAggregator()
		before := mallocCount()
		call("nsset.Add", func() {
			for i := range recs {
				r := &recs[i]
				dayAgg.Add(r.NSSet, r.Time, r.Status, r.RTT)
				if r.Status != nsset.StatusOK {
					st.failedRecords++
				}
			}
		})
		st.addAllocs += mallocCount() - before
		st.records += int64(len(recs))

		if !sealed {
			call("nsset.Merge", func() { runAgg.Merge(dayAgg) })
			continue
		}
		var snap nsset.Snapshot
		call("nsset.Snapshot", func() { snap = dayAgg.Snapshot() })
		var file daystore.SealedFile
		call("daystore.SealDay", func() { file, err = daystore.SealDay(dsDir, day, snap) })
		if err != nil {
			return st, err
		}
		call("checkpoint.WriteDayRef", func() {
			err = journal.WriteDayRef(day, checkpoint.DayRef{File: file.Name, SHA256: file.SHA256})
		})
		if err != nil {
			return st, err
		}
		st.journalRecords++
		st.windows += len(snap.Windows)
		if fi, err := os.Stat(filepath.Join(dsDir, file.Name)); err == nil {
			st.sealBytes += fi.Size()
		}
	}

	var set *daystore.Set
	var extra []core.Option
	if sealed {
		call("daystore.Open", func() { set, err = daystore.Open(dsDir) })
		if err != nil {
			return st, err
		}
		extra = append(extra, core.WithDayStore(set))
	}
	var p *core.Pipeline
	call("core.NewPipeline", func() { p = sess.NewPipeline(runAgg, nil, reg, extra...) })
	var classified []core.ClassifiedAttack
	call("core.Classify", func() { classified = p.Classify(sess.Attacks) })
	var events []core.Event
	call("core.EventsContext", func() { events, err = p.EventsContext(ctx, sess.Attacks) })
	if err != nil {
		return st, err
	}
	var csv bytes.Buffer
	call("report.EventsCSV", func() { err = report.EventsCSV(&csv, events) })
	if err != nil {
		return st, err
	}
	tr.end(op)
	st.use = m.since()

	st.hash = sha256.Sum256(csv.Bytes())
	st.csvBytes = csv.Len()
	st.domains = len(sess.World.DB.Domains)
	st.obsWindows = len(sess.Obs)
	st.attacks = len(sess.Attacks)
	st.events = len(events)
	for i := range classified {
		if classified[i].DNSInfra() {
			st.dnsAttacks++
		}
	}
	st.cacheHits = reg.Gauge("core.join.day_cache_hits", obs.Volatile()).Load()
	st.cacheMisses = reg.Gauge("core.join.day_cache_misses", obs.Volatile()).Load()
	st.shared = reg.Gauge("core.join.day_cache_shared_waits", obs.Volatile()).Load()
	if sealed {
		st.keys = len(set.Keys())
		call("daystore.Close", func() { err = set.Close() })
		if err != nil {
			return st, err
		}
	} else {
		keys := runAgg.Keys()
		st.keys = len(keys)
		for _, k := range keys {
			st.windows += len(runAgg.Windows(k))
		}
	}
	return st, nil
}

// studyLayers turns the traced runs into the per-layer metrics. Times are
// those of the fastest traced run, the one the machine disturbed least: its
// spans add up to its own wall time, which a statistic taken span by span
// over several runs would not. Counts repeat exactly from run to run.
func studyLayers(e *env, traced []studyTrace) {
	total, self := e.tr.perRun()
	cpus, steals := make([]float64, len(traced)), make([]float64, len(traced))
	best := traced[0]
	for i, st := range traced {
		cpus[i], steals[i] = st.use.cpu.Seconds(), st.use.steal.Seconds()
		if st.use.wall < best.use.wall {
			best = st
		}
	}
	t := func(name string) float64 { return total[best.run][name].Seconds() }
	selfOf := func(name string) float64 { return self[best.run][name].Seconds() }
	untracedCPU := e.values["op.cpu_ms"] / 1e3
	records := float64(best.records)

	e.set("scenario.generate_s", t("scenario.generate"))
	e.set("scenario.domains", float64(best.domains))
	e.set("scenario.obs_windows", float64(best.obsWindows))
	e.set("rsdos.infer_s", t("rsdos.Infer"))
	e.set("rsdos.attacks", float64(best.attacks))

	sweep := t("openintel.RunDayContext") + t("nsset.Add")
	e.set("openintel.sweep_s", sweep)
	e.set("openintel.records", records)
	e.set("openintel.ns_per_record", stats.Ratio(sweep*1e9, records))
	e.set("openintel.domain_days_per_s", stats.Ratio(records, sweep))
	e.set("resolver.resolve_self_s", selfOf("openintel.RunDayContext"))
	e.set("resolver.tries_per_record", stats.Ratio(float64(best.queries), records))
	e.set("resolver.failed_share", stats.Ratio(float64(best.failedRecords), records))
	e.set("simnet.query_s", t("simnet.Query"))
	e.set("simnet.queries", float64(best.queries))
	e.set("simnet.ns_per_query", stats.Ratio(t("simnet.Query")*1e9, float64(best.queries)))
	e.set("nsset.add_s", t("nsset.Add"))
	e.set("nsset.add_ns_per_record", stats.Ratio(t("nsset.Add")*1e9, records))
	e.set("nsset.add_allocs_per_record", stats.Ratio(float64(best.addAllocs), records))
	e.set("nsset.merge_s", t("nsset.Merge"))
	e.set("nsset.snapshot_s", t("nsset.Snapshot"))
	e.set("nsset.keys", float64(best.keys))
	e.set("nsset.windows", float64(best.windows))
	e.set("daystore.seal_s", t("daystore.SealDay"))
	e.set("daystore.seal_mb", float64(best.sealBytes)/1e6)
	e.set("daystore.bytes_per_record", stats.Ratio(float64(best.sealBytes), records))
	e.set("daystore.open_s", t("daystore.Open"))
	e.set("daystore.close_s", t("daystore.Close"))
	e.set("checkpoint.write_s", t("checkpoint.Create")+t("checkpoint.WriteDayRef"))
	e.set("checkpoint.records", float64(best.journalRecords))
	e.set("core.index_s", t("core.NewPipeline"))
	e.set("core.classify_s", t("core.Classify"))
	e.set("core.events_s", t("core.EventsContext"))
	e.set("core.events", float64(best.events))
	e.set("core.dns_attacks", float64(best.dnsAttacks))
	e.set("core.day_cache_hit_share", stats.Ratio(float64(best.cacheHits), float64(best.cacheHits+best.cacheMisses+best.shared)))
	e.set("report.csv_s", t("report.EventsCSV"))
	e.set("report.csv_bytes", float64(best.csvBytes))

	// What the production run loop spends outside any layer call the
	// re-composition makes: supervision, locks, garbage collection.
	attributed := t("study.run") - selfOf("study.run")
	e.set("study.unattributed_s", untracedCPU-attributed)
	e.set("trace.overhead_share", stats.Ratio(steady(cpus, steals)-untracedCPU, untracedCPU))
}
