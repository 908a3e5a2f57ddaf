// Package dnsddos_test is the benchmark harness that regenerates every
// table and figure of the paper's evaluation (§5–§6): BenchmarkPaper runs
// one sub-benchmark per entry of internal/report's Catalogue, which prints
// the artefact once per process (so `go test -bench` output doubles as the
// reproduction report) and measures the marginal cost of recomputing it
// from the joined dataset.
//
// The expensive part — generating the world, the 17-month schedule, the
// telescope observations, and the daily measurement sweeps — runs once and
// is shared by all benchmarks. Set DNSDDOS_BENCH_SCALE=full for the
// full-size world (slower, closer counts), default is a mid-size world
// that preserves every shape.
package dnsddos_test

import (
	"context"
	"fmt"
	"io"
	"os"
	"sync"
	"testing"
	"time"

	"dnsddos/internal/report"
	"dnsddos/internal/rsdos"
	"dnsddos/internal/study"
)

var (
	studyOnce sync.Once
	theStudy  *study.Study
)

// benchStudy runs (once) the shared end-to-end study all benchmarks join
// against.
func benchStudy(b *testing.B) *study.Study {
	if b != nil {
		b.Helper()
	}
	studyOnce.Do(func() {
		cfg := study.DefaultConfig()
		if os.Getenv("DNSDDOS_BENCH_SCALE") != "full" {
			cfg.World.Domains = 15000
			cfg.World.GenericProviders = 100
			cfg.Attacks.TotalAttacks = 25000
		}
		start := time.Now()
		var err error
		if theStudy, err = study.RunContext(context.Background(), cfg); err != nil {
			// only an invalid config can fail here; b.Fatal inside the Once
			// would leave every later benchmark a nil study
			panic(err)
		}
		fmt.Printf("# shared study: domains=%d attacks=%d events=%d (%.1fs)\n",
			len(theStudy.World.DB.Domains), len(theStudy.Attacks), len(theStudy.Events),
			time.Since(start).Seconds())
	})
	return theStudy
}

var printed sync.Map

// printReport emits a table/series once per process, however often the
// testing package re-enters the benchmark to grow b.N.
func printReport(key string, f func()) {
	if _, loaded := printed.LoadOrStore(key, true); !loaded {
		f()
	}
}

// BenchmarkPaper regenerates the paper's tables and figures, one
// sub-benchmark per catalogue entry (DESIGN §4 names them).
func BenchmarkPaper(b *testing.B) {
	s := benchStudy(b)
	for _, a := range report.Catalogue {
		b.Run(a.ID, func(b *testing.B) {
			printReport(a.ID, func() {
				if err := a.Report(os.Stdout, s); err != nil {
					b.Fatal(err)
				}
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := a.Report(io.Discard, s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPipelineJoin measures raw join throughput: attacks joined per
// second over the shared measurement dataset.
func BenchmarkPipelineJoin(b *testing.B) {
	s := benchStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Pipeline.Events(s.Attacks)
	}
	b.ReportMetric(float64(len(s.Attacks)), "attacks/op")
}

// BenchmarkRSDoSInference measures inference throughput over the synthetic
// telescope observations.
func BenchmarkRSDoSInference(b *testing.B) {
	s := benchStudy(b)
	cfg := s.Config.RSDoS
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rsdos.Infer(cfg, s.Obs)
	}
	b.ReportMetric(float64(len(s.Obs)), "observations/op")
}
