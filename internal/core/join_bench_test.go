package core_test

import (
	"bytes"
	"context"
	"io"
	"sync"
	"testing"

	"dnsddos/internal/core"
	"dnsddos/internal/daystore"
	"dnsddos/internal/report"
	"dnsddos/internal/study"
)

// join_bench_test.go benchmarks the interval-indexed sharded engine
// against the reference linear scan (legacy_test.go) on a mid-size study
// world, and one cold re-join over sealed days at the scale and in the
// shape of the repo benchmark's join_dense operation. `make test` runs a
// -benchtime=1x smoke so the harness itself cannot rot; `make bench-join`
// prints it with -benchmem. The gated number is join_dense's op_alloc_kb
// (benchmark/).

var (
	benchOnce  sync.Once
	benchStudy *study.Study
	benchErr   error
)

// joinStudy runs (once) the shared study both legs join against. Index
// construction happens inside it, matching production use where one
// pipeline serves many joins.
func joinStudy(b *testing.B) *study.Study {
	b.Helper()
	benchOnce.Do(func() {
		cfg := study.DefaultConfig()
		cfg.World.Domains = 15000
		cfg.World.GenericProviders = 100
		cfg.Attacks.TotalAttacks = 25000
		benchStudy, benchErr = study.RunContext(context.Background(), cfg, study.WithSkipJoin())
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchStudy
}

// BenchmarkJoin measures one full attack×snapshot join (§4.2) over the
// 17-month schedule. The acceptance bar for the indexed engine is ≥5x
// over the reference scan at this scale.
func BenchmarkJoin(b *testing.B) {
	s := joinStudy(b)
	ctx := context.Background()

	b.Run("indexed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			events, err := s.Pipeline.EventsContext(ctx, s.Attacks)
			if err != nil {
				b.Fatal(err)
			}
			if len(events) == 0 {
				b.Fatal("indexed join produced no events")
			}
		}
	})

	// swept once, on the sub-benchmark's first call, into a directory that
	// outlives its calls
	var swept *study.Study
	dir := b.TempDir()
	b.Run("cold", func(b *testing.B) {
		if swept == nil {
			swept = sweepSealed(b, ctx, dir)
		}
		benchColdJoin(b, ctx, swept, dir)
	})

	b.Run("legacy", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			events, err := core.EventsLegacy(ctx, s.Pipeline, s.Attacks)
			if err != nil {
				b.Fatal(err)
			}
			if len(events) == 0 {
				b.Fatal("legacy join produced no events")
			}
		}
	})
}

// sweepSealed sweeps a study at the repo benchmark's join_dense scale and
// seals its days under dir, skipping the join.
func sweepSealed(b *testing.B, ctx context.Context, dir string) *study.Study {
	b.Helper()
	cfg := study.DefaultConfig()
	cfg.World.Domains = 6000
	cfg.World.GenericProviders = 60
	cfg.Attacks.TotalAttacks = 20000
	cfg.Attacks.DNSShare = 0.15
	cfg.FromDay, cfg.ToDay = 0, 149
	swept, err := study.RunContext(ctx, cfg, study.WithDayStoreDir(dir), study.WithSkipJoin())
	if err != nil {
		b.Fatal(err)
	}
	if c, ok := swept.Pipeline.DayStore().(io.Closer); ok {
		if err := c.Close(); err != nil {
			b.Fatal(err)
		}
	}
	return swept
}

// benchColdJoin is one cold re-join per iteration over the sealed days:
// open the day store, build a pipeline, join, render the events CSV,
// close — what a re-run over sealed days pays.
func benchColdJoin(b *testing.B, ctx context.Context, swept *study.Study, dir string) {
	sess := swept.Session()
	var csv bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set, err := daystore.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		p := sess.NewPipeline(set, nil, nil)
		events, err := p.EventsContext(ctx, swept.Attacks)
		if err != nil {
			b.Fatal(err)
		}
		if len(events) == 0 {
			b.Fatal("cold join produced no events")
		}
		csv.Reset()
		if err := report.EventsCSV(&csv, events); err != nil {
			b.Fatal(err)
		}
		if err := set.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
