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
//	         [-coordinator HOST:PORT] [-min-workers N] [-heartbeat D]
//
// With -coordinator, joinpipe runs no sweeps itself: it listens on the
// given address, distributes the day-sweeps across joinworker processes
// (DESIGN §3.6) and joins the sealed days in process, with the same
// checkpoint/resume and quarantine semantics and byte-identical output.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dnsddos/internal/cli"
	"dnsddos/internal/distjoin"
	"dnsddos/internal/obs"
	"dnsddos/internal/report"
	"dnsddos/internal/study"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("joinpipe: ")
	if err := run(); err != nil {
		if errors.Is(err, context.Canceled) {
			// checkpoints (if enabled) are already durable; resume with
			// -resume
			log.Fatal("interrupted (completed day-sweeps are checkpointed; rerun with -resume)")
		}
		log.Fatal(err)
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
	coordAddr := flag.String("coordinator", "", "run as fleet coordinator: listen on this address and distribute the work to joinworker processes")
	minWorkers := flag.Int("min-workers", 1, "coordinator mode: hold dispatch until this many workers register")
	heartbeat := flag.Duration("heartbeat", time.Second, "coordinator mode: fleet heartbeat interval; a worker silent for 5 intervals is suspect (its task is requeued), for 10 dead")
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
	var s *study.Study
	if *coordAddr != "" {
		if *shardTimeout != 0 {
			return fmt.Errorf("-shard-timeout does not apply in coordinator mode")
		}
		if *daystoreDir != "" {
			return fmt.Errorf("-daystore does not apply in coordinator mode: the fleet's day files go to <-checkpoint>/days, or a temporary directory")
		}
		coord, err := distjoin.NewCoordinator(cfg,
			distjoin.WithListenAddr(*coordAddr),
			distjoin.WithHeartbeatInterval(*heartbeat),
			distjoin.WithCheckpointDir(*ckptDir),
			distjoin.WithResume(*resume),
			distjoin.WithMetrics(reg),
			distjoin.WithMinWorkers(*minWorkers),
		)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "joinpipe: coordinating on %s (waiting for %d worker(s): joinworker -connect %s)\n",
			coord.Addr(), *minWorkers, coord.Addr())
		if s, err = coord.Run(ctx); err != nil {
			return err
		}
	} else {
		runOpts := []study.Option{
			study.WithCheckpointDir(*ckptDir),
			study.WithResume(*resume),
			study.WithShardTimeout(*shardTimeout),
			study.WithMetrics(reg),
		}
		if *daystoreDir != "" {
			runOpts = append(runOpts, study.WithDayStoreDir(*daystoreDir))
		}
		if s, err = study.RunContext(ctx, cfg, runOpts...); err != nil {
			return err
		}
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
