package nsset

import (
	"math/rand/v2"
	"runtime"
	"testing"
	"time"

	"dnsddos/internal/clock"
	"dnsddos/internal/netx"
)

func BenchmarkKeyOf(b *testing.B) {
	addrs := []netx.Addr{0x51000001, 0x51000101, 0x51000201, 0x51000301}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = KeyOf(addrs)
	}
}

func BenchmarkAggregatorAdd(b *testing.B) {
	agg := NewAggregator()
	keys := make([]Key, 64)
	for i := range keys {
		keys[i] = KeyOf([]netx.Addr{netx.Addr(0x51000001 + i), netx.Addr(0x51000101 + i)})
	}
	rng := rand.New(rand.NewPCG(1, 1))
	times := make([]time.Time, 1024)
	for i := range times {
		times[i] = clock.StudyStart.Add(time.Duration(rng.IntN(86400*30)) * time.Second)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg.Add(keys[i%len(keys)], times[i%len(times)], StatusOK, 10*time.Millisecond)
	}
}

// BenchmarkAggregatorDay is one day-shard as a sealed run's worker sees
// it: a recycled aggregator over the engine's table takes a day of the
// benchmark's shape (100 NSSets, 12,000 records in slot order, about 1,800
// retained windows) by ID.
func BenchmarkAggregatorDay(b *testing.B) {
	tab, recs, filter := benchmarkDay(40)
	agg := NewAggregatorOver(tab)
	agg.SetWindowFilter(filter)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg.Reset()
		for j := range recs {
			r := &recs[j]
			agg.AddID(r.id, r.t, r.st, r.rtt)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	records := float64(b.N) * float64(len(recs))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/records, "ns/record")
	b.ReportMetric(float64(ms.Mallocs-mallocs)/records, "allocs/record")
}

func BenchmarkImpactOnRTT(b *testing.B) {
	agg := NewAggregator()
	k := KeyOf([]netx.Addr{1, 2, 3})
	day := clock.Day(40)
	for i := 0; i < 100; i++ {
		agg.Add(k, day.Prev().Start().Add(time.Duration(i)*time.Minute), StatusOK, 10*time.Millisecond)
		agg.Add(k, day.Start().Add(time.Duration(i)*time.Minute), StatusOK, 25*time.Millisecond)
	}
	w := clock.WindowOf(day.Start())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := agg.ImpactOnRTT(k, w); !ok {
			b.Fatal("impact undefined")
		}
	}
}
