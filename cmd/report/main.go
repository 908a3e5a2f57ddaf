// Command report runs the full study and prints every table and figure of
// the paper's evaluation — internal/report's Catalogue, entry by entry —
// and, with -outdir, writes each entry's table or plot series to its file.
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
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dnsddos/internal/cli"
	"dnsddos/internal/obs"
	"dnsddos/internal/report"
	"dnsddos/internal/study"
)

func main() {
	if err := run(); err != nil {
		slog.New(slog.NewTextHandler(os.Stderr, nil)).Error("report failed", "err", err)
		os.Exit(1)
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
	s, err := study.RunContext(ctx, cfg, study.WithCheckpointDir(*ckptDir), study.WithResume(*resume),
		study.WithMetrics(reg), study.WithDayStoreDir(*daystoreDir))
	if err != nil {
		return err
	}
	fmt.Printf("study: %d domains, %d inferred attacks, %d joined events (%.1fs)\n\n",
		len(s.World.DB.Domains), len(s.Attacks), len(s.Events), time.Since(start).Seconds())
	cli.ReportSkippedDays(s)

	if err := report.Export(os.Stdout, *outdir, s); err != nil {
		return err
	}
	if *outdir != "" {
		fmt.Printf("wrote per-figure CSVs to %s\n", *outdir)
	}
	return nil
}
