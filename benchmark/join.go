package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"dnsddos/internal/core"
	"dnsddos/internal/daystore"
	"dnsddos/internal/obs"
	"dnsddos/internal/report"
	"dnsddos/internal/stats"
	"dnsddos/internal/study"
)

// join.go is the join_dense workload: the sweep runs once, in set-up, and
// the operation is a cold re-join over the days it sealed — open the day
// store, build a pipeline, classify, join, render the CSV, close. Every
// join must render the same CSV, and that CSV must be the one an in-memory
// reference study renders.

// joinBlock is how many joins make one repeat: they share one reading of
// the heap, CPU and steal counters (reading the heap counters stops the
// world, and steal comes in ticks of 10 ms, half a join), and the traced
// pass switches the tracer on and off between blocks.
const joinBlock = 10

func runJoinDense(e *env) error {
	ctx := context.Background()
	cfg := studyConfig(e.seed, e.sc.joinDomains, e.sc.joinProviders, e.sc.joinAttacks, e.sc.joinDays)
	cfg.Attacks.DNSShare = e.sc.joinDNSShare

	dir, err := e.workDir("join-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	days := filepath.Join(dir, "days")

	// Set-up: sweep and seal the days the joins read, skipping the join.
	var swept *study.Study
	var setups []usage
	for i := 0; i < e.sc.joinSetups; i++ {
		m := markUsage()
		s, err := study.RunContext(ctx, cfg, study.WithDayStoreDir(days), study.WithSkipJoin())
		if err != nil {
			return fmt.Errorf("pre-sweep: %w", err)
		}
		setups = append(setups, m.since())
		if c, ok := s.Pipeline.DayStore().(io.Closer); ok {
			if err := c.Close(); err != nil {
				return err
			}
		}
		swept = s
	}
	e.setSetup(setups)
	sess := swept.Session()
	reg := obs.New()

	var csv bytes.Buffer
	var first [sha256.Size]byte // CSV hash of the first join; all must equal it
	var events, dnsAttacks int
	// joinOnce is one cold re-join; an error makes it a failed operation.
	joinOnce := func(tr *tracer, run int) (wall time.Duration, err error) {
		e.attempted++
		var set *daystore.Set
		defer func() {
			// The day store reports a corrupt file by panicking with its
			// typed error at the first access to that day.
			if r := recover(); r != nil {
				err = fmt.Errorf("%v", r)
			}
			if err != nil {
				e.fail("join %d: %v", run, err)
				if set != nil {
					set.Close() // the join already failed; only unmap
				}
			}
		}()
		t0 := time.Now()
		op := tr.begin("join.run", noSpan, run)
		call := func(name string, f func()) {
			id := tr.begin(name, op, run)
			f()
			tr.end(id)
		}
		call("daystore.Open", func() { set, err = daystore.Open(days) })
		if err != nil {
			return 0, err
		}
		var p *core.Pipeline
		call("core.NewPipeline", func() { p = sess.NewPipeline(swept.Agg, nil, reg, core.WithDayStore(set)) })
		var classified []core.ClassifiedAttack
		call("core.Classify", func() { classified = p.Classify(swept.Attacks) })
		var evs []core.Event
		call("core.EventsContext", func() { evs, err = p.EventsContext(ctx, swept.Attacks) })
		if err != nil {
			return 0, err
		}
		csv.Reset()
		call("report.EventsCSV", func() { err = report.EventsCSV(&csv, evs) })
		if err != nil {
			return 0, err
		}
		call("daystore.Close", func() { err = set.Close() })
		if err != nil {
			set = nil
			return 0, err
		}
		tr.end(op)
		wall = time.Since(t0)

		got := sha256.Sum256(csv.Bytes())
		if first == ([sha256.Size]byte{}) {
			first = got
		} else if got != first {
			e.fail("join %d: events CSV %x differs from the first join's %x", run, got[:6], first[:6])
		}
		events = len(evs)
		dnsAttacks = 0
		for i := range classified {
			if classified[i].DNSInfra() {
				dnsAttacks++
			}
		}
		return wall, nil
	}

	// One untimed join maps every day file once, so the timed joins find
	// them in the page cache.
	_, joinErr := joinOnce(nil, -1)

	// A repeat is a block of joins and holds their mean cost. A join that
	// errors ends the measurement: the days it could not read are still
	// there for the next one.
	var repeats [2][]opCost // [0] tracer off, [1] tracer on
	var walls []float64     // every join, ms
	start := time.Now()
	for block := 0; joinErr == nil && (block < 2 || time.Since(start) < e.budget); block++ {
		on := 0
		tr := (*tracer)(nil)
		if e.traced && block%2 == 1 {
			on, tr = 1, e.tr
		}
		var sum, wall time.Duration
		m := markUsage()
		for i := 0; i < joinBlock && joinErr == nil; i++ {
			wall, joinErr = joinOnce(tr, block*joinBlock+i)
			sum += wall
			walls = append(walls, wall.Seconds()*1e3)
		}
		if joinErr == nil {
			repeats[on] = append(repeats[on], m.since().perOp(sum/joinBlock, joinBlock))
		}
	}
	if joinErr != nil {
		// Nothing measured can be trusted; the result says so and carries
		// no metrics.
		return nil
	}
	e.set("peak_rss_mb", peakRSSMB())

	// The oracle runs last, so that its memory stays out of peak_rss_mb:
	// a study of the same configuration that keeps its days in memory —
	// the other day backend — must render the same CSV.
	ref, err := study.RunContext(ctx, cfg)
	if err != nil {
		return fmt.Errorf("reference study: %w", err)
	}
	csv.Reset()
	if err := report.EventsCSV(&csv, ref.Events); err != nil {
		return err
	}
	e.attempted++
	switch got := sha256.Sum256(csv.Bytes()); {
	case len(ref.Events) == 0:
		return fmt.Errorf("reference study produced no events; the CSV check would be vacuous")
	case got != first:
		e.fail("joins rendered CSV %x, the in-memory reference study %x", first[:6], got[:6])
	}
	e.setOpMetrics(repeats[0])
	if !e.traced {
		return nil
	}

	// A layer's time is the median over the traced joins: there are
	// hundreds, each too short to have its own steal reading.
	total, _ := e.tr.perRun()
	t := func(name string) float64 {
		xs := make([]float64, 0, len(total))
		for _, byName := range total {
			xs = append(xs, byName[name].Seconds())
		}
		return stats.Median(xs)
	}
	stage := func(name string) float64 {
		return float64(swept.Metrics.Gauge("study.stage."+name+"_wall_ns", obs.Volatile()).Load()) / 1e9
	}
	e.set("scenario.generate_s", stage("generate"))
	e.set("scenario.domains", float64(len(sess.World.DB.Domains)))
	e.set("scenario.obs_windows", float64(len(sess.Obs)))
	e.set("rsdos.infer_s", stage("infer"))
	e.set("rsdos.attacks", float64(len(swept.Attacks)))
	e.set("daystore.open_s", t("daystore.Open"))
	e.set("daystore.close_s", t("daystore.Close"))
	e.set("core.index_s", t("core.NewPipeline"))
	e.set("core.classify_s", t("core.Classify"))
	e.set("core.events_s", t("core.EventsContext"))
	e.set("core.events", float64(events))
	e.set("core.dns_attacks", float64(dnsAttacks))
	hits := reg.Gauge("core.join.day_cache_hits", obs.Volatile()).Load()
	misses := reg.Gauge("core.join.day_cache_misses", obs.Volatile()).Load()
	shared := reg.Gauge("core.join.day_cache_shared_waits", obs.Volatile()).Load()
	e.set("core.day_cache_hit_share", stats.Ratio(float64(hits), float64(hits+misses+shared)))
	e.set("core.join_p99_ms", stats.Quantile(walls, 0.99))
	e.set("report.csv_s", t("report.EventsCSV"))
	e.set("report.csv_bytes", float64(csv.Len()))
	off := e.values["op.cpu_ms"]
	e.set("trace.overhead_share", stats.Ratio(steadyOf(repeats[1], cpuOf)-off, off))
	return nil
}
