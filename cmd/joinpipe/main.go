// Command joinpipe runs the full study end to end — world, schedule,
// telescope, inference, measurement sweeps, join — and writes the joined
// attack events as CSV, one row per (attack, NSSet) event.
//
// The run is supervised: SIGINT/SIGTERM cancel it cleanly, -checkpoint
// seals every completed day-sweep to a column file (under DIR/days unless
// -daystore names another directory) and journals a hash reference to it,
// and -checkpoint with -resume restarts a killed run from the last
// completed day instead of day 0. Day-sweeps that panic are retried once
// and then quarantined (reported on stderr) rather than aborting the run.
//
// Usage:
//
//	joinpipe [-domains N] [-attacks N] [-out FILE] [-quick] [-config FILE]
//	         [-checkpoint DIR] [-resume] [-shard-timeout D] [-metrics-addr :9090]
//	         [-daystore DIR]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
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
		logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
		if errors.Is(err, context.Canceled) {
			// checkpoints (if enabled) are already durable; resume with
			// -resume
			logger.Error("joinpipe interrupted", "hint", "completed day-sweeps are checkpointed; rerun with -resume")
		} else {
			logger.Error("joinpipe failed", "err", err)
		}
		os.Exit(1)
	}
}

// run owns all cleanup: the signal context, flushing checkpoints (done
// per-day inside the study), and removing a partially-written output
// file on error so a crashed run never leaves a plausible-looking CSV.
func run() (err error) {
	common := cli.Register("joinpipe", true, true)
	out := flag.String("out", "", "output CSV file (default stdout)")
	ckptDir := flag.String("checkpoint", "", "checkpoint directory: persist each completed day-sweep")
	resume := flag.Bool("resume", false, "resume from the checkpoints in -checkpoint instead of day 0")
	shardTimeout := flag.Duration("shard-timeout", 0, "watchdog deadline per day-sweep (0 = none); a stuck day is quarantined, not waited for")
	daystoreDir := flag.String("daystore", "", "seal completed day-sweeps to columnar files in this directory and join against the mmap-backed views (out-of-core: resident memory stays flat in the world size); with -checkpoint the default is DIR/days")
	flag.Parse()

	if *resume && *ckptDir == "" {
		return fmt.Errorf("-resume requires -checkpoint DIR")
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
		study.WithShardTimeout(*shardTimeout),
		study.WithMetrics(reg),
	}
	if *daystoreDir != "" {
		runOpts = append(runOpts, study.WithDayStoreDir(*daystoreDir))
	}
	s, err := study.RunContext(ctx, cfg, runOpts...)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "joinpipe: %d attacks inferred, %d events joined (%.1fs",
		len(s.Attacks), len(s.Events), time.Since(start).Seconds())
	if s.Report.ResumedDays > 0 {
		fmt.Fprintf(os.Stderr, ", %d day-sweeps resumed from checkpoint", s.Report.ResumedDays)
	}
	fmt.Fprintf(os.Stderr, ")\n")
	cli.ReportSkippedDays(s)

	w := io.Writer(os.Stdout)
	var f *os.File
	if *out != "" {
		if f, err = os.Create(*out); err != nil {
			return err
		}
		w = f
		defer func() {
			if f == nil {
				return // closed cleanly below
			}
			f.Close()
			os.Remove(f.Name())
		}()
	}
	if err := report.EventsCSV(w, s.Events); err != nil {
		return err
	}
	if f != nil {
		if err := f.Close(); err != nil {
			return err
		}
		f = nil
	}
	return nil
}
