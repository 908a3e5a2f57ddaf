// Package dnsddos_test is the benchmark harness that regenerates every
// table and figure of the paper's evaluation (§5–§6). Each benchmark
// prints its table/series once per process (so `go test -bench` output
// doubles as the reproduction report) and measures the marginal cost of
// recomputing that analysis from the joined dataset.
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
	"math/rand/v2"
	"os"
	"sync"
	"testing"
	"time"

	"dnsddos/internal/core"
	"dnsddos/internal/netx"
	"dnsddos/internal/nsset"
	"dnsddos/internal/reactive"
	"dnsddos/internal/report"
	"dnsddos/internal/rsdos"
	"dnsddos/internal/stats"
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

var printOnce sync.Map

// printReport emits a table/series once per process.
func printReport(key string, f func()) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		f()
	}
}

// --- Table 1 -----------------------------------------------------------

func BenchmarkTable1_RSDoSDataset(b *testing.B) {
	s := benchStudy(b)
	printReport("t1", func() {
		report.Table1(os.Stdout, core.SummarizeDataset(s.Attacks, s.World.Topo))
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.SummarizeDataset(s.Attacks, s.World.Topo)
	}
}

// --- Table 2 -----------------------------------------------------------

// transIPRows extracts the per-nameserver telescope metrics for the two
// scripted TransIP attacks from the inferred feed.
func transIPRows(s *study.Study) []report.Table2Row {
	cs := s.Schedule.CaseStudies
	labels := map[netx.Addr]string{}
	for i, a := range cs.TransIPNS {
		labels[a] = string(rune('A' + i))
	}
	scale := s.Telescope.ScaleFactor()
	var rows []report.Table2Row
	add := func(name string, from, to time.Time) {
		for _, a := range s.Attacks {
			l, ok := labels[a.Victim]
			if !ok || !a.Overlaps(from, to) {
				continue
			}
			rows = append(rows, report.Table2Row{
				Attack:      name,
				NS:          l,
				PeakPPM:     a.PeakPPM,
				InferredPPS: a.InferredVictimPPS(scale),
				Gbps:        a.InferredGbps(scale, 1400),
				AttackerIPs: a.InferredAttackerIPs(scale),
			})
		}
	}
	add("Dec 2020", cs.TransIPDecStart, cs.TransIPDecEnd)
	add("Mar 2021", cs.TransIPMarStart, cs.TransIPMarEnd)
	return rows
}

func BenchmarkTable2_TransIPAttackMetrics(b *testing.B) {
	s := benchStudy(b)
	printReport("t2", func() { report.Table2(os.Stdout, transIPRows(s)) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(transIPRows(s)) < 4 {
			b.Fatal("TransIP attacks not inferred from telescope data")
		}
	}
}

// --- Table 3 -----------------------------------------------------------

func BenchmarkTable3_MonthlyActivity(b *testing.B) {
	s := benchStudy(b)
	printReport("t3", func() { report.Table3(os.Stdout, core.MonthlySummary(s.Classified)) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.MonthlySummary(s.Classified)
	}
}

// --- Table 4 -----------------------------------------------------------

func BenchmarkTable4_TopASNs(b *testing.B) {
	s := benchStudy(b)
	printReport("t4", func() { report.Table4(os.Stdout, core.TopASNs(s.Classified, s.World.Topo, 10)) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.TopASNs(s.Classified, s.World.Topo, 10)
	}
}

// --- Table 5 -----------------------------------------------------------

func BenchmarkTable5_TopIPs(b *testing.B) {
	s := benchStudy(b)
	printReport("t5", func() { report.Table5(os.Stdout, s.Pipeline.TopIPs(s.Classified, 10)) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Pipeline.TopIPs(s.Classified, 10)
	}
}

// --- Table 6 -----------------------------------------------------------

func BenchmarkTable6_MostAffected(b *testing.B) {
	s := benchStudy(b)
	printReport("t6", func() { report.Table6(os.Stdout, core.MostAffected(s.Events, 10)) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.MostAffected(s.Events, 10)
	}
}

// --- Figure 2 / Figure 3: TransIP time series --------------------------

func transIPNSSet(s *study.Study) nsset.Key {
	return nsset.KeyOf(s.Schedule.CaseStudies.TransIPNS[:])
}

func BenchmarkFigure2_TransIPRTT(b *testing.B) {
	s := benchStudy(b)
	cs := s.Schedule.CaseStudies
	k := transIPNSSet(s)
	printReport("f2", func() {
		report.Figure2(os.Stdout, "TransIP December 2020 (RTT)",
			s.Pipeline.SeriesFor(k, cs.TransIPDecStart.Add(-2*time.Hour), cs.TransIPDecEnd.Add(12*time.Hour)))
		report.Figure2(os.Stdout, "TransIP March 2021 (RTT)",
			s.Pipeline.SeriesFor(k, cs.TransIPMarStart.Add(-2*time.Hour), cs.TransIPMarEnd.Add(12*time.Hour)))
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Pipeline.SeriesFor(k, cs.TransIPDecStart, cs.TransIPDecEnd)
	}
}

func BenchmarkFigure3_TransIPTimeouts(b *testing.B) {
	s := benchStudy(b)
	cs := s.Schedule.CaseStudies
	k := transIPNSSet(s)
	printReport("f3", func() {
		report.Figure3(os.Stdout, "TransIP March 2021 (timeouts)",
			s.Pipeline.SeriesFor(k, cs.TransIPMarStart.Add(-2*time.Hour), cs.TransIPMarEnd.Add(6*time.Hour)))
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Pipeline.SeriesFor(k, cs.TransIPMarStart, cs.TransIPMarEnd)
	}
}

// --- Figure 5 -----------------------------------------------------------

func BenchmarkFigure5_AffectedDomains(b *testing.B) {
	s := benchStudy(b)
	printReport("f5", func() { report.Figure5(os.Stdout, s.Pipeline.MonthlyAffectedDomains(s.Classified)) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Pipeline.MonthlyAffectedDomains(s.Classified)
	}
}

// --- Figure 6 -----------------------------------------------------------

func BenchmarkFigure6_PortDistribution(b *testing.B) {
	s := benchStudy(b)
	printReport("f6", func() {
		report.Figure6(os.Stdout, core.PortDistribution(s.Classified, nil))
		// the §6.3.1 twist: port mix of *successful* attacks skews to 53
		failing := make(map[int]bool)
		for _, e := range s.Events {
			if e.Timeouts+e.ServFails > 0 {
				failing[e.Attack.ID] = true
			}
		}
		fmt.Println("# successful (failure-causing) attacks only:")
		report.Figure6(os.Stdout, core.PortDistribution(s.Classified, func(ca core.ClassifiedAttack) bool {
			return failing[ca.ID]
		}))
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.PortDistribution(s.Classified, nil)
	}
}

// --- Figure 7 / Figure 8 -------------------------------------------------

func BenchmarkFigure7_FailureRate(b *testing.B) {
	s := benchStudy(b)
	printReport("f7", func() {
		report.Scatter(os.Stdout, "Figure 7: failure rate vs hosted domains", "hosted_domains", "failure_pct", core.FailureScatter(s.Events))
		fb := core.BreakdownFailures(s.Events)
		fmt.Printf("events,%d\nwith_failures,%d\ncomplete_failures,%d\ntimeout_share,%.2f\nservfail_share,%.2f\nunicast_share_of_failing,%.2f\n",
			fb.Events, fb.WithFailures, fb.CompleteFails,
			stats.Ratio(float64(fb.Timeouts), float64(fb.Timeouts+fb.ServFails)),
			stats.Ratio(float64(fb.ServFails), float64(fb.Timeouts+fb.ServFails)),
			fb.UnicastFailShare)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.FailureScatter(s.Events)
	}
}

func BenchmarkFigure8_RTTImpact(b *testing.B) {
	s := benchStudy(b)
	printReport("f8", func() {
		pts := core.ImpactScatter(s.Events)
		report.Scatter(os.Stdout, "Figure 8: RTT impact vs hosted domains", "hosted_domains", "impact_x", pts)
		var over10, over100 int
		for _, p := range pts {
			if p.Y >= 10 {
				over10++
			}
			if p.Y >= 100 {
				over100++
			}
		}
		fmt.Printf("events_with_impact,%d\nshare>=10x,%.3f\nshare>=100x,%.3f\n",
			len(pts), stats.Ratio(float64(over10), float64(len(pts))), stats.Ratio(float64(over100), float64(len(pts))))
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.ImpactScatter(s.Events)
	}
}

// --- Figure 9 / Figure 10 ------------------------------------------------

func BenchmarkFigure9_IntensityCorrelation(b *testing.B) {
	s := benchStudy(b)
	printReport("f9", func() {
		r := core.IntensityCorrelation(s.Events)
		report.Correlation(os.Stdout, "Figure 9: RTT impact vs telescope intensity", r)
		h := stats.NewHistogram(0, 5, 50) // log10(ppm) histogram
		for _, x := range r.X {
			if x > 0 {
				h.Add(log10(x))
			}
		}
		fmt.Printf("ppm_log10_modes,%v\n", h.Modes(3))
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.IntensityCorrelation(s.Events)
	}
}

func log10(x float64) float64 {
	l := 0.0
	for x >= 10 {
		x /= 10
		l++
	}
	for x < 1 {
		x *= 10
		l--
	}
	// linear interpolation within the decade is enough for mode finding
	return l + (x-1)/9
}

func BenchmarkFigure10_DurationCorrelation(b *testing.B) {
	s := benchStudy(b)
	printReport("f10", func() {
		r := core.DurationCorrelation(s.Events)
		report.Correlation(os.Stdout, "Figure 10: RTT impact vs attack duration", r)
		report.DurationModes(os.Stdout, core.DurationHistogram(s.Classified, 180))
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.DurationCorrelation(s.Events)
	}
}

// --- Figures 11–13: resilience techniques -------------------------------

func BenchmarkFigure11_AnycastEfficacy(b *testing.B) {
	s := benchStudy(b)
	printReport("f11", func() { report.Groups(os.Stdout, "Figure 11: impact by anycast class", core.ImpactByAnycast(s.Events)) })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.ImpactByAnycast(s.Events)
	}
}

func BenchmarkFigure12_ASDiversity(b *testing.B) {
	s := benchStudy(b)
	printReport("f12", func() {
		report.Groups(os.Stdout, "Figure 12: impact by AS diversity", core.ImpactByASDiversity(s.Events))
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.ImpactByASDiversity(s.Events)
	}
}

func BenchmarkFigure13_PrefixDiversity(b *testing.B) {
	s := benchStudy(b)
	printReport("f13", func() {
		report.Groups(os.Stdout, "Figure 13: impact by /24 prefix diversity", core.ImpactByPrefixDiversity(s.Events))
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.ImpactByPrefixDiversity(s.Events)
	}
}

// --- §5.2 case studies and the reactive platform ------------------------

func BenchmarkCaseStudy_Russia(b *testing.B) {
	s := benchStudy(b)
	cs := s.Schedule.CaseStudies
	platform := reactive.NewPlatform(reactive.DefaultConfig(), s.World.DB, s.Resolver, rand.New(rand.NewPCG(5, 5)))
	milAttack, okMil := findAttack(s.Attacks, cs.MilRuNS, cs.MilRuStart, cs.MilRuEnd)
	rzdAttack, okRzd := findAttack(s.Attacks, cs.RZDNS, cs.RZDStart, cs.RZDEnd)
	if !okMil || !okRzd {
		b.Fatal("case-study attacks not inferred from telescope data")
	}
	printReport("russia", func() {
		mil := platform.React(milAttack)
		fmt.Printf("# mil.ru: attack %s..%s, probes=%d, unresolvable_during_attack=%v\n",
			milAttack.Start().Format(time.RFC3339), milAttack.End().Format(time.RFC3339),
			len(mil.Probes), mil.UnresolvableDuringAttack())
		rzd := platform.React(rzdAttack)
		rec, ok := rzd.RecoveryTime(0.5)
		fmt.Printf("# rzd.ru: attack %s..%s, telegram_post=%s (start+12m), recovered=%v at %s\n",
			rzdAttack.Start().Format(time.RFC3339), rzdAttack.End().Format(time.RFC3339),
			cs.RZDTelegram.Format(time.RFC3339), ok, rec.Format(time.RFC3339))
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := platform.React(rzdAttack)
		if len(c.Probes) == 0 {
			b.Fatal("no probes")
		}
	}
}

// newBenchPlatform builds a reactive platform over the shared study.
func newBenchPlatform(s *study.Study) *reactive.Platform {
	return reactive.NewPlatform(reactive.DefaultConfig(), s.World.DB, s.Resolver, rand.New(rand.NewPCG(9, 9)))
}

func findAttack(attacks []rsdos.Attack, nss []netx.Addr, from, to time.Time) (rsdos.Attack, bool) {
	for _, a := range attacks {
		for _, n := range nss {
			if a.Victim == n && a.Overlaps(from, to) {
				return a, true
			}
		}
	}
	return rsdos.Attack{}, false
}

func BenchmarkReactive_Trigger(b *testing.B) {
	s := benchStudy(b)
	platform := reactive.NewPlatform(reactive.DefaultConfig(), s.World.DB, s.Resolver, rand.New(rand.NewPCG(6, 6)))
	// feed a sample of DNS-direct attacks through the bus-driven watcher
	var sample []rsdos.Attack
	for _, ca := range s.Classified {
		if ca.Class == core.ClassDNSDirect && len(sample) < 20 {
			sample = append(sample, ca.Attack)
		}
	}
	if len(sample) == 0 {
		b.Fatal("no DNS-direct attacks")
	}
	printReport("reactive", func() {
		results := reactive.NewBus[*reactive.Campaign]()
		out := results.Subscribe(64)
		feed := make(chan rsdos.Attack, len(sample))
		for _, a := range sample {
			feed <- a
		}
		close(feed)
		go reactive.NewWatcher(platform).Run(feed, results)
		var n, probes int
		var worstDelay time.Duration
		for c := range out {
			n++
			probes += len(c.Probes)
			if d := c.Triggered.Sub(c.Attack.Start()); d > worstDelay {
				worstDelay = d
			}
		}
		fmt.Printf("# reactive: campaigns=%d probes=%d worst_trigger_delay=%s (<=10m)\n", n, probes, worstDelay)
	})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = platform.React(sample[i%len(sample)])
	}
}
