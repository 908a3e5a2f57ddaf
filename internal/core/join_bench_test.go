package core_test

import (
	"context"
	"sync"
	"testing"

	"dnsddos/internal/core"
	"dnsddos/internal/study"
)

// join_bench_test.go benchmarks the interval-indexed sharded engine
// against the reference linear scan (legacy_test.go) on a mid-size study
// world. `make test` runs a -benchtime=1x smoke so the harness itself
// cannot rot; the columnar day-store join is measured by the repo
// benchmark's join_dense workload (benchmark/).

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
