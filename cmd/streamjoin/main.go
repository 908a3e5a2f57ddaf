// Command streamjoin runs the live counterpart of cmd/joinpipe: it
// builds the study world and measurement-side indexes (without the batch
// join), then streams the study's own telescope feed — the per-(victim,
// window) observations the batch study curates, Session.Feed — through
// internal/stream, closing 5-minute RSDoS windows as the feed's watermark
// passes, finalizing attacks incrementally and joining them the moment
// they can no longer change. Joined impact events are appended to the
// output CSV batch by batch, with bounded lag, instead of at end of run.
// The stream replays the whole feed; -from-day and -days pick the days
// the measurement sweeps (with the day before, for the previous-day
// snapshot and baseline), by default the whole study, so the attacks on
// those days join to events. streamjoin then writes joinpipe's rows over
// the same configuration, numbered in emission order.
//
// With -journal the emission frontier is checkpointed after every
// accepted batch; -journal with -resume restarts a killed run with
// exactly-once delivery — the output file is truncated to the journaled
// byte offset and the replay re-emits nothing the file already holds.
//
// Observations that arrive for a window already closed are dropped,
// counted and reported in the final summary, never silently swallowed.
//
// Usage:
//
//	streamjoin [-quick] [-domains N] [-attacks N] [-from-day D] [-days N]
//	           [-lateness W] [-out FILE] [-journal DIR] [-resume]
//	           [-metrics-addr :9090]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dnsddos/internal/cli"
	"dnsddos/internal/clock"
	"dnsddos/internal/obs"
	"dnsddos/internal/rsdos"
	"dnsddos/internal/stream"
	"dnsddos/internal/study"
)

func main() {
	if err := run(); err != nil {
		logger := slog.New(slog.NewTextHandler(os.Stderr, nil))
		if errors.Is(err, context.Canceled) {
			logger.Error("streamjoin interrupted", "hint", "the journal frontier is durable; rerun with -resume")
		} else {
			logger.Error("streamjoin failed", "err", err)
		}
		os.Exit(1)
	}
}

func run() error {
	common := cli.Register("streamjoin", true, false)
	fromDay := flag.Int("from-day", 1, "first study day whose attacks are measured (the day before it is swept too)")
	days := flag.Int("days", clock.StudyDays()-1, "number of days whose attacks are measured, from -from-day (default: through the study's last day)")
	lateness := flag.Int("lateness", 1, "watermark lateness allowance in 5-minute windows")
	out := flag.String("out", "", "output CSV file, appended batch by batch (default stdout)")
	journalDir := flag.String("journal", "", "journal directory: checkpoint the emission frontier per batch")
	resume := flag.Bool("resume", false, "resume from the journal in -journal with exactly-once emission")
	flag.Parse()

	if *resume && *journalDir == "" {
		return fmt.Errorf("-resume requires -journal DIR")
	}
	if *resume && *out == "" {
		return fmt.Errorf("-resume requires -out FILE (stdout cannot be truncated to the journaled offset)")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg, err := common.Config()
	if err != nil {
		return err
	}
	// sweep one day before the chosen days (prev-day snapshots and
	// baselines) and the chosen days themselves
	from := clock.Day(*fromDay)
	to := from + clock.Day(*days) - 1
	cfg.FromDay, cfg.ToDay = from-1, to

	reg := obs.New()
	stopMetrics, err := common.ServeMetrics(reg)
	if err != nil {
		return err
	}
	defer stopMetrics()

	start := time.Now()
	s, err := study.RunContext(ctx, cfg, study.WithSkipJoin(), study.WithMetrics(reg))
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "streamjoin: world and measurement sweeps of days %d..%d ready (%.1fs), streaming the feed\n",
		int(from), int(to), time.Since(start).Seconds())

	opts := []stream.Option{
		stream.WithContext(ctx),
		stream.WithRSDoS(cfg.RSDoS),
		stream.WithLateness(*lateness),
		stream.WithMetrics(reg),
	}
	if *journalDir != "" {
		// the journal is keyed by everything that determines the emitted
		// byte sequence: the study config hash plus the feed's seed
		dir, err := study.OpenJournal(*journalDir, cfg, cfg.Synth.Seed, *resume)
		if err != nil {
			return err
		}
		defer dir.Close()
		opts = append(opts, stream.WithJournal(dir))
	}

	sink, err := stream.NewFileSink(*out)
	if err != nil {
		return err
	}
	defer sink.Close()

	p, err := stream.New(s.Pipeline, sink, opts...)
	if err != nil {
		return err
	}
	if cur, ok := p.Resumed(); ok {
		if err := sink.TruncateTo(cur.SinkBytes); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "streamjoin: resuming past window %d (%d attacks, %d events already delivered)\n",
			int64(cur.ClosedThrough), cur.Attacks, cur.Events)
	} else if err := sink.WriteHeader(); err != nil {
		return err
	}

	// An interrupt or a stream failure stops the stream at the next
	// watermark; the rest of the feed is drawn but not streamed.
	var offered int64
	var streamErr error
	s.Session().Feed(func(o *rsdos.WindowObs) {
		if streamErr == nil {
			offered++
			p.Offer(o)
		}
	}, func(w clock.Window) {
		if streamErr == nil {
			if streamErr = ctx.Err(); streamErr == nil {
				streamErr = p.Advance(w)
			}
		}
	})
	if streamErr != nil {
		// Terminated (or wedged) mid-stream: flush and close the sink
		// *now*, with errors propagated, before reporting the journal
		// frontier as resumable — the deferred close would swallow a
		// failure and leave the journaled SinkBytes offset pointing past
		// what the file durably holds.
		if err := sink.Shutdown(); err != nil {
			return fmt.Errorf("closing sink after interrupt: %w (stream stopped: %v)", err, streamErr)
		}
		if ct, ok := p.ClosedThrough(); ok {
			fmt.Fprintf(os.Stderr, "streamjoin: sink flushed and closed at durable frontier window %d (offset %d)\n",
				int64(ct), sink.Offset())
		}
		return streamErr
	}
	if err := p.Close(); err != nil {
		return err
	}
	if err := sink.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr,
		"streamjoin: %d observations streamed, %d batches, %d attacks, %d events, %d late drops (%.1fs)\n",
		offered, sink.Batches, sink.Attacks, sink.Events, p.LateDrops(), time.Since(start).Seconds())
	return nil
}
