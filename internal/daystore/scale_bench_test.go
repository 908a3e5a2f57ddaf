package daystore

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"dnsddos/internal/clock"
	"dnsddos/internal/netx"
	"dnsddos/internal/nsset"
)

// scale_bench_test.go is the out-of-core acceptance benchmark (go test
// -bench DayStoreScale -benchtime 1x -run '^$' -timeout 30m): a
// >1M-domain-per-day measurement volume is sealed day by day — each day's aggregator dropped
// as soon as its file publishes, exactly like the daystore-mode study
// loop — and then scanned join-style through the mmap views. The timed
// section reports heap growth alongside the on-disk volume and FAILS if
// the resident heap grows by more than a quarter of the data it scanned:
// the whole point of the columnar store is that the OS pages day columns
// in and out on demand, so working-set residency must not track world
// size.

func BenchmarkDayStoreScale(b *testing.B) {
	const (
		nsSets        = 120_000
		domainsPerSet = 9 // 1.08M measured domains per day
		days          = 6
	)
	dir := b.TempDir()

	keys := make([]nsset.Key, nsSets)
	for i := range keys {
		keys[i] = nsset.KeyOf([]netx.Addr{netx.Addr(i + 1), netx.Addr(0x0A000000 + uint32(i))})
	}

	var sealedBytes int64
	for d := 0; d < days; d++ {
		day := clock.Day(d)
		agg := nsset.NewAggregator()
		for i, k := range keys {
			w := day.FirstWindow() + clock.Window(int64(i)%clock.WindowsPerDay)
			t0 := w.Start()
			for j := 0; j < domainsPerSet; j++ {
				rtt := time.Duration(5+(i+j)%40) * time.Millisecond
				status := nsset.StatusOK
				if (i+j)%17 == 0 {
					status = nsset.StatusTimeout
				}
				agg.Add(k, t0.Add(time.Duration(j)*time.Second), status, rtt)
			}
		}
		ref, err := SealDay(dir, day, agg.Snapshot())
		if err != nil {
			b.Fatal(err)
		}
		st, err := os.Stat(filepath.Join(dir, ref.Name))
		if err != nil {
			b.Fatal(err)
		}
		sealedBytes += st.Size()
		// agg goes out of scope here: the sealed file is the only copy,
		// the same flat-RSS discipline study.WithDayStoreDir runs under
	}

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	set, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	defer set.Close()

	var touched int64
	var wins []nsset.WindowMetrics
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// join-style scan: every NSSet, baseline point probe plus the full
		// window list, across every sealed day
		for _, k := range keys {
			for d := 0; d < days; d++ {
				day := clock.Day(d)
				if bl, ok := set.Baseline(k, day); ok {
					touched += int64(bl.Domains)
				}
				wins = set.AppendWindows(wins[:0], k, day.FirstWindow(), (day+1).FirstWindow()-1)
				for i := range wins {
					touched += int64(wins[i].Domains)
				}
			}
		}
	}
	b.StopTimer()
	if touched == 0 {
		b.Fatal("scan touched nothing")
	}

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	var heapGrowth int64
	if after.HeapInuse > before.HeapInuse {
		heapGrowth = int64(after.HeapInuse - before.HeapInuse)
	}

	b.ReportMetric(float64(nsSets*domainsPerSet), "domains/day")
	b.ReportMetric(float64(sealedBytes)/1e6, "disk_MB")
	b.ReportMetric(float64(heapGrowth)/1e6, "heap_growth_MB")

	if limit := sealedBytes / 4; heapGrowth > limit {
		b.Fatalf("flat-RSS violated: opening and scanning %d MB of sealed days grew the heap by %d MB (limit %d MB)",
			sealedBytes/1e6, heapGrowth/1e6, limit/1e6)
	}
}
