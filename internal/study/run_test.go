package study

import (
	"context"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"testing"
	"time"

	"dnsddos/internal/clock"
	"dnsddos/internal/obs"
)

// run_test.go holds the run loop's per-day cost to what a day keeps: the
// sweep counts fold like the registry snapshot they replace, and an extra
// swept day allocates a bounded handful of objects.

// importSnapshot is how a day's counts reached the run registry when a day
// shipped a registry snapshot: a registry of the day's own, its snapshot,
// and that snapshot imported.
func importSnapshot(run *obs.Registry, c SweepCounts) {
	reg := obs.New()
	reg.Counter("study.sweep.ok").Add(c.OK)
	reg.Counter("study.sweep.servfail").Add(c.ServFail)
	reg.Counter("study.sweep.timeout").Add(c.Timeout)
	reg.Histogram("study.sweep.rtt").Fold(&c.RTT)
	run.ImportSnapshot(reg.Snapshot())
}

// TestSweepCountsFoldMatchesSnapshotImport: on random days' counts —
// empty days, RTTs from zero to past the overflow bucket — folding each
// SweepCounts into a registry leaves the stable snapshot that importing
// each day's registry snapshot leaves.
func TestSweepCountsFoldMatchesSnapshotImport(t *testing.T) {
	rng := rand.New(rand.NewPCG(37, 1))
	for trial := 0; trial < 50; trial++ {
		folded, imported := obs.New(), obs.New()
		for day := rng.IntN(6); day >= 0; day-- {
			var c SweepCounts
			if rng.IntN(5) > 0 {
				c.OK, c.ServFail, c.Timeout = rng.Int64N(1000), rng.Int64N(50), rng.Int64N(50)
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
// set, the engine's random source, and the ledger's record of it. With a
// registry built, snapshotted and imported per day, and a goroutine per
// day, it was 40.
const allocsPerDayBudget = 12

// TestRunAllocationsPerDay: RunContext over 2N days allocates at most
// allocsPerDayBudget objects per day more than over N, with one worker and
// with two — the fewest of three runs each, read from runtime.MemStats
// (the run's workers are goroutines, which testing.AllocsPerRun would
// count too but cannot take a minimum over). The race detector changes
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
	mallocs := func(days int) uint64 {
		cfg.FromDay, cfg.ToDay = 40, clock.Day(40+days-1)
		fewest := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := RunContext(context.Background(), cfg); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			fewest = min(fewest, after.Mallocs-before.Mallocs)
		}
		return fewest
	}
	for _, par := range []int{1, 2} {
		cfg.Parallelism = par
		perDay := (float64(mallocs(2*n)) - float64(mallocs(n))) / n
		t.Logf("Parallelism %d: %.1f allocations per extra swept day", par, perDay)
		if !raceEnabled && perDay > allocsPerDayBudget {
			t.Errorf("Parallelism %d: %.1f allocations per extra swept day, budget %d", par, perDay, allocsPerDayBudget)
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
