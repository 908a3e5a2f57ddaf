package study

import (
	"context"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"strconv"
	"testing"
	"time"

	"dnsddos/internal/clock"
	"dnsddos/internal/nsset"
	"dnsddos/internal/obs"
)

// run_test.go holds the run loop's per-day cost to what a day keeps: the
// sweep counts fold like the registry snapshot they replace, and an extra
// swept day allocates a bounded handful of objects.

// importSnapshot is how a day's counts reached the run registry when a day
// shipped a registry snapshot: a registry of the day's own, its snapshot,
// and that snapshot imported.
func importSnapshot(run *obs.Registry, c sweepCounts) {
	reg := obs.New()
	reg.Counter("study.sweep.ok").Add(c.OK)
	reg.Counter("study.sweep.servfail").Add(c.ServFail)
	reg.Counter("study.sweep.timeout").Add(c.Timeout)
	reg.Counter("study.sweep.skipped").Add(c.Skipped)
	reg.Histogram("study.sweep.rtt").Fold(&c.RTT)
	run.ImportSnapshot(reg.Snapshot())
}

// TestSweepCountsFoldMatchesSnapshotImport: on random days' counts —
// empty days, RTTs from zero to past the overflow bucket — folding each
// sweepCounts into a registry leaves the stable snapshot that importing
// each day's registry snapshot leaves.
func TestSweepCountsFoldMatchesSnapshotImport(t *testing.T) {
	rng := rand.New(rand.NewPCG(37, 1))
	for trial := 0; trial < 50; trial++ {
		folded, imported := obs.New(), obs.New()
		for day := rng.IntN(6); day >= 0; day-- {
			var c sweepCounts
			if rng.IntN(5) > 0 {
				c.OK, c.ServFail, c.Timeout, c.Skipped = rng.Int64N(1000), rng.Int64N(50), rng.Int64N(50), rng.Int64N(5000)
				for i := rng.IntN(200); i > 0; i-- {
					c.RTT.Observe(time.Duration(rng.Int64N(int64(100 * time.Second))))
				}
			}
			c.fold(folded)
			importSnapshot(imported, c)
		}
		if got, want := folded.StableSnapshot(), imported.StableSnapshot(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: folded counts\n%+v\nwant the imported snapshots'\n%+v", trial, got, want)
		}
	}
}

// allocsPerDayBudget bounds what one more swept day allocates in a run
// that keeps its days in memory: the day's image and its slot in the day
// set, the engine's random source, and the ledger's record of it — ≈ 6.
// It was ≈ 10 while each of the ledger's five metric look-ups by name
// allocated, and 40 with a registry built, snapshotted and imported per
// day, and a goroutine per day.
const allocsPerDayBudget = 8

// allocsPerSealedDayBudget bounds the same for a run that seals every day
// to a column file and journals it (WithDayStoreDir + WithCheckpointDir):
// the day's file name and hash, the publish (temporary file, rename), and
// the join's open and mapping of one more day file; the day log's append
// allocates nothing. It measures 14.2–14.5, and 16.4 with the directory
// created again for every day; it was ≈ 43 while every frame built a gob
// encoder and every publish drew a random temporary name, created the
// directory and opened it to sync it.
const allocsPerSealedDayBudget = 15.5

// TestRunAllocationsPerDay: RunContext over 2N days allocates at most
// allocsPerDayBudget objects per day more than over N, and at most
// allocsPerSealedDayBudget when it seals and journals every day, with one
// worker and with two — the fewest of three runs each, read from
// runtime.MemStats with the collector paused (the run's workers are
// goroutines, which testing.AllocsPerRun would count too but cannot take
// a minimum over; a collection empties the sync.Pools a run then refills,
// and each run allocates ≈ 1 MB) — from day 40, and from the
// first day whose N following days have an empty demand, which the
// engine sweeps without measuring a domain. The race detector changes
// the counts, so under it the runs only exercise the workers.
func TestRunAllocationsPerDay(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	const n = 16
	cfg := QuickConfig()
	cfg.World.Domains = 300
	cfg.World.GenericProviders = 20
	cfg.Attacks.TotalAttacks = 300
	sess, err := NewSession(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	// emptyFrom is the first day whose n following days have an empty
	// demand.
	emptyFrom, run := clock.Day(-1), 0
	for d := cfg.FromDay; d <= cfg.ToDay && emptyFrom < 0; d++ {
		run++
		for id := 0; id < sess.Engine.NSSetTable().Len(); id++ {
			if sess.sweepsDay(nsset.ID(id), d) {
				run = 0
				break
			}
		}
		if run == n && d-2*n+1 >= cfg.FromDay {
			emptyFrom = d - 2*n + 1
		}
	}
	if emptyFrom < 0 {
		t.Fatalf("no %d days in a row have an empty demand", n)
	}
	from := clock.Day(40)
	mallocs := func(days int, sealed bool) uint64 {
		cfg.FromDay, cfg.ToDay = from, from+clock.Day(days-1)
		fewest := uint64(math.MaxUint64)
		for range 3 {
			var opts []Option
			if sealed {
				dir := t.TempDir()
				opts = []Option{WithDayStoreDir(filepath.Join(dir, "days")), WithCheckpointDir(filepath.Join(dir, "ckpt"))}
			}
			var before, after runtime.MemStats
			gc := debug.SetGCPercent(-1)
			runtime.ReadMemStats(&before)
			s, err := RunContext(context.Background(), cfg, opts...)
			if err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			debug.SetGCPercent(gc)
			fewest = min(fewest, after.Mallocs-before.Mallocs)
			if c, ok := s.Pipeline.DayStore().(io.Closer); ok {
				if err := c.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
		return fewest
	}
	starts := []clock.Day{from, emptyFrom}
	for _, sealed := range []bool{false, true} {
		budget := float64(allocsPerDayBudget)
		if sealed {
			budget = allocsPerSealedDayBudget
		}
		for _, start := range starts {
			from = start
			for _, par := range []int{1, 2} {
				cfg.Parallelism = par
				perDay := (float64(mallocs(2*n, sealed)) - float64(mallocs(n, sealed))) / n
				t.Logf("sealed %v, from day %d, Parallelism %d: %.1f allocations per extra swept day", sealed, start, par, perDay)
				if !raceEnabled && perDay > budget {
					t.Errorf("sealed %v, from day %d, Parallelism %d: %.1f allocations per extra swept day, budget %g", sealed, start, par, perDay, budget)
				}
			}
		}
	}
}

// BenchmarkRunContext is one whole study at the repo benchmark's scale
// with two workers, days kept in memory: its allocs/op is what study_batch
// op_allocs reads (make bench-session).
func BenchmarkRunContext(b *testing.B) {
	cfg := benchmarkScaleConfig()
	cfg.Parallelism = 2
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunContext(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunContextSealed is BenchmarkRunContext with every day sealed
// to a column file and journaled, in fresh directories each op: its
// allocs/op is what study_sealed op_allocs reads (make bench-session).
func BenchmarkRunContextSealed(b *testing.B) {
	cfg := benchmarkScaleConfig()
	cfg.Parallelism = 2
	root := b.TempDir()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dir := filepath.Join(root, strconv.Itoa(i))
		s, err := RunContext(context.Background(), cfg,
			WithDayStoreDir(filepath.Join(dir, "days")), WithCheckpointDir(filepath.Join(dir, "ckpt")))
		if err != nil {
			b.Fatal(err)
		}
		// RunContext leaves the sealed days mapped for the pipeline it
		// returns; unmap them before their directory goes.
		if c, ok := s.Pipeline.DayStore().(io.Closer); ok {
			if err := c.Close(); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if err := os.RemoveAll(dir); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
