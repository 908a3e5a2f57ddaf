// Command report runs the full study and prints every table and figure of
// the paper's evaluation — the one-shot reproduction report.
//
// The run is supervised like cmd/joinpipe: SIGINT/SIGTERM cancel it
// cleanly, and -checkpoint/-resume restart a killed run from the last
// completed day-sweep.
//
// Usage:
//
//	report [-quick] [-domains N] [-attacks N] [-outdir DIR] [-config FILE]
//	       [-checkpoint DIR] [-resume] [-metrics-addr :9090]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"dnsddos/internal/cli"
	"dnsddos/internal/core"
	"dnsddos/internal/nsset"
	"dnsddos/internal/obs"
	"dnsddos/internal/report"
	"dnsddos/internal/study"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("report: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	common := cli.Register("report", false, true)
	outdir := flag.String("outdir", "", "also write each table/figure to CSV files in this directory")
	ckptDir := flag.String("checkpoint", "", "checkpoint directory: persist each completed day-sweep")
	resume := flag.Bool("resume", false, "resume from the checkpoints in -checkpoint instead of day 0")
	daystoreDir := flag.String("daystore", "", "seal completed day-sweeps to columnar files in this directory and join against the mmap-backed views (out-of-core: resident memory stays flat in the world size); with -checkpoint the default is DIR/days")
	flag.Parse()

	if *resume && *ckptDir == "" {
		return fmt.Errorf("-resume requires -checkpoint DIR")
	}
	if *outdir != "" {
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			return err
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg, err := common.Config()
	if err != nil {
		return err
	}
	reg := obs.New()
	stopMetrics, err := common.ServeMetrics(reg)
	if err != nil {
		return err
	}
	defer stopMetrics()

	start := time.Now()
	runOpts := []study.Option{
		study.WithCheckpointDir(*ckptDir),
		study.WithResume(*resume),
		study.WithMetrics(reg),
	}
	if *daystoreDir != "" {
		runOpts = append(runOpts, study.WithDayStoreDir(*daystoreDir))
	}
	s, err := study.RunContext(ctx, cfg, runOpts...)
	if err != nil {
		return err
	}
	fmt.Printf("study: %d domains, %d inferred attacks, %d joined events (%.1fs)\n\n",
		len(s.World.DB.Domains), len(s.Attacks), len(s.Events), time.Since(start).Seconds())
	cli.ReportSkippedDays(s)

	out := os.Stdout
	report.Table1(out, core.SummarizeDataset(s.Attacks, s.World.Topo))
	fmt.Println()
	report.Table3(out, core.MonthlySummary(s.Classified))
	fmt.Println()
	report.Table4(out, core.TopASNs(s.Classified, s.World.Topo, 10))
	fmt.Println()
	report.Table5(out, s.Pipeline.TopIPs(s.Classified, 10))
	fmt.Println()
	report.Table6(out, core.MostAffected(s.Events, 10))
	fmt.Println()

	cs := s.Schedule.CaseStudies
	k := nsset.KeyOf(cs.TransIPNS[:])
	report.Figure2(out, "TransIP December 2020",
		s.Pipeline.SeriesFor(k, cs.TransIPDecStart.Add(-2*time.Hour), cs.TransIPDecEnd.Add(10*time.Hour)))
	fmt.Println()
	report.Figure3(out, "TransIP March 2021",
		s.Pipeline.SeriesFor(k, cs.TransIPMarStart.Add(-2*time.Hour), cs.TransIPMarEnd.Add(6*time.Hour)))
	fmt.Println()
	report.Figure5(out, s.Pipeline.MonthlyAffectedDomains(s.Classified))
	fmt.Println()
	report.Figure6(out, core.PortDistribution(s.Classified, nil))
	fmt.Println()
	report.Scatter(out, "Figure 7: failure rate vs hosted domains", "hosted_domains", "failure_pct", core.FailureScatter(s.Events))
	fmt.Println()
	report.FailureBreakdown(out, core.BreakdownFailures(s.Events))
	fmt.Println()
	report.Scatter(out, "Figure 8: RTT impact vs hosted domains", "hosted_domains", "impact_x", core.ImpactScatter(s.Events))
	fmt.Println()
	report.Correlation(out, "Figure 9: RTT impact vs telescope intensity", core.IntensityCorrelation(s.Events))
	fmt.Println()
	report.Correlation(out, "Figure 10: RTT impact vs attack duration", core.DurationCorrelation(s.Events))
	report.DurationModes(out, core.DurationHistogram(s.Classified, 180))
	fmt.Println()
	report.Groups(out, "Figure 11: impact by anycast class", core.ImpactByAnycast(s.Events))
	fmt.Println()
	report.Groups(out, "Figure 12: impact by AS diversity", core.ImpactByASDiversity(s.Events))
	fmt.Println()
	report.Groups(out, "Figure 13: impact by /24 prefix diversity", core.ImpactByPrefixDiversity(s.Events))

	if *outdir != "" {
		if err := exportCSVs(*outdir, s); err != nil {
			return err
		}
		fmt.Printf("\nwrote per-figure CSVs to %s\n", *outdir)
	}
	return nil
}

// exportCSVs writes each figure's data series to its own file for external
// plotting.
func exportCSVs(dir string, s *study.Study) error {
	cs := s.Schedule.CaseStudies
	k := nsset.KeyOf(cs.TransIPNS[:])
	var firstErr error
	write := func(name string, f func(w io.Writer)) {
		if firstErr != nil {
			return
		}
		out, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			firstErr = err
			return
		}
		f(out)
		if err := out.Close(); err != nil {
			firstErr = err
		}
	}
	write("table1.txt", func(w io.Writer) { report.Table1(w, core.SummarizeDataset(s.Attacks, s.World.Topo)) })
	write("table3.txt", func(w io.Writer) { report.Table3(w, core.MonthlySummary(s.Classified)) })
	write("table4.txt", func(w io.Writer) { report.Table4(w, core.TopASNs(s.Classified, s.World.Topo, 10)) })
	write("table5.txt", func(w io.Writer) { report.Table5(w, s.Pipeline.TopIPs(s.Classified, 10)) })
	write("table6.txt", func(w io.Writer) { report.Table6(w, core.MostAffected(s.Events, 10)) })
	write("figure2_dec.csv", func(w io.Writer) {
		report.Figure2(w, "TransIP December 2020", s.Pipeline.SeriesFor(k, cs.TransIPDecStart.Add(-2*time.Hour), cs.TransIPDecEnd.Add(10*time.Hour)))
	})
	write("figure2_mar.csv", func(w io.Writer) {
		report.Figure2(w, "TransIP March 2021", s.Pipeline.SeriesFor(k, cs.TransIPMarStart.Add(-2*time.Hour), cs.TransIPMarEnd.Add(10*time.Hour)))
	})
	write("figure3.csv", func(w io.Writer) {
		report.Figure3(w, "TransIP March 2021", s.Pipeline.SeriesFor(k, cs.TransIPMarStart.Add(-2*time.Hour), cs.TransIPMarEnd.Add(6*time.Hour)))
	})
	write("figure5.csv", func(w io.Writer) { report.Figure5(w, s.Pipeline.MonthlyAffectedDomains(s.Classified)) })
	write("figure6.csv", func(w io.Writer) { report.Figure6(w, core.PortDistribution(s.Classified, nil)) })
	write("figure7.csv", func(w io.Writer) {
		report.Scatter(w, "Figure 7", "hosted_domains", "failure_pct", core.FailureScatter(s.Events))
	})
	write("figure8.csv", func(w io.Writer) {
		report.Scatter(w, "Figure 8", "hosted_domains", "impact_x", core.ImpactScatter(s.Events))
	})
	write("figure9.csv", func(w io.Writer) { report.Correlation(w, "Figure 9", core.IntensityCorrelation(s.Events)) })
	write("figure10.csv", func(w io.Writer) { report.Correlation(w, "Figure 10", core.DurationCorrelation(s.Events)) })
	write("figure11.csv", func(w io.Writer) { report.Groups(w, "Figure 11", core.ImpactByAnycast(s.Events)) })
	write("figure12.csv", func(w io.Writer) { report.Groups(w, "Figure 12", core.ImpactByASDiversity(s.Events)) })
	write("figure13.csv", func(w io.Writer) { report.Groups(w, "Figure 13", core.ImpactByPrefixDiversity(s.Events)) })
	write("metrics.json", func(w io.Writer) { s.Metrics.Snapshot().WriteJSON(w) })
	return firstErr
}
