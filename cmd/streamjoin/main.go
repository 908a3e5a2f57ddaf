// Command streamjoin runs the live counterpart of cmd/joinpipe: it
// builds the study world and measurement-side indexes (without the batch
// join), replays a deterministic telescope packet trace from the study's
// own attack schedule, and streams it through internal/stream — closing
// 5-minute RSDoS windows as the watermark passes, finalizing attacks
// incrementally and joining them the moment they can no longer change.
// Joined impact events are appended to the output CSV batch by batch,
// with bounded lag, instead of at end of run.
//
// With -journal the emission frontier is checkpointed after every
// accepted batch; -journal with -resume restarts a killed run with
// exactly-once delivery — the output file is truncated to the journaled
// byte offset and the replay re-emits nothing the file already holds.
//
// Usage:
//
// With -max-backlog the overload tier engages (DESIGN §3.7): closed
// windows queue behind a bounded backlog whose depth drives the
// degradation ladder, -spill-dir moves the backlog tail to disk past a
// high-water mark, and -shed-policy opts in to the lossy rungs (shed
// late packets, then sample). Offers the pipeline refuses are counted
// and reported in the final summary, never silently swallowed.
//
// Usage:
//
//	streamjoin [-quick] [-domains N] [-attacks N] [-from-day D] [-days N]
//	           [-lateness W] [-jitter W] [-rate F] [-seed N] [-out FILE]
//	           [-journal DIR] [-resume] [-metrics-addr :9090]
//	           [-max-backlog N] [-spill-dir DIR] [-high-water N]
//	           [-shed-policy none|late|sample] [-admit-rate F] [-drain-every N]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dnsddos/internal/cli"
	"dnsddos/internal/clock"
	"dnsddos/internal/obs"
	"dnsddos/internal/packet"
	"dnsddos/internal/stream"
	"dnsddos/internal/study"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("streamjoin: ")
	if err := run(); err != nil {
		if errors.Is(err, context.Canceled) {
			log.Fatal("interrupted (the journal frontier is durable; rerun with -resume)")
		}
		log.Fatal(err)
	}
}

func run() error {
	common := cli.Register("streamjoin", true, false)
	fromDay := flag.Int("from-day", 29, "first study day the trace replays")
	days := flag.Int("days", 1, "number of days to replay")
	lateness := flag.Int("lateness", 1, "watermark lateness allowance in 5-minute windows")
	jitter := flag.Int("jitter", 0, "arrival-order jitter of the replayed trace, in windows")
	rate := flag.Float64("rate", 0.003, "flood downsampling rate of the trace (1 = every packet)")
	seed := flag.Uint64("seed", 99, "trace seed (packets, spoofed sources, responses)")
	out := flag.String("out", "", "output CSV file, appended batch by batch (default stdout)")
	journalDir := flag.String("journal", "", "journal directory: checkpoint the emission frontier per batch")
	resume := flag.Bool("resume", false, "resume from the journal in -journal with exactly-once emission")
	maxBacklog := flag.Int("max-backlog", 0, "overload: bound on queued closed-window batches; at the bound intake pauses (0 = unbounded, tier off)")
	spillDir := flag.String("spill-dir", "", "overload: directory for the backlog spill file (batches past -high-water go to disk)")
	highWater := flag.Int("high-water", 64, "overload: in-memory batches kept before spilling (needs -spill-dir)")
	shedPolicy := flag.String("shed-policy", "none", "overload shedding ladder: none, late, or sample")
	admitRate := flag.Float64("admit-rate", 0, "overload: token-bucket admission bound in packets per second of stream time (0 = unlimited)")
	drainEvery := flag.Int("drain-every", 0, "overload: join one queued batch every N offers (<= 1 drains fully per offer)")
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
	// sweep one day before the trace (prev-day snapshots and baselines)
	// and the trace days themselves
	traceFrom := clock.Day(*fromDay)
	traceTo := traceFrom + clock.Day(*days) - 1
	cfg.FromDay, cfg.ToDay = traceFrom-1, traceTo

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
	fmt.Fprintf(os.Stderr, "streamjoin: world and measurement sweeps ready (%.1fs), streaming days %d..%d\n",
		time.Since(start).Seconds(), int(traceFrom), int(traceTo))

	opts := []stream.Option{
		stream.WithContext(ctx),
		stream.WithRSDoS(cfg.RSDoS),
		stream.WithLateness(*lateness),
		stream.WithMetrics(reg),
	}
	policy, err := stream.ParseShedPolicy(*shedPolicy)
	if err != nil {
		return err
	}
	overloaded := *maxBacklog > 0 || *spillDir != "" || *admitRate > 0 || policy != stream.ShedNone
	if overloaded {
		ov := stream.Overload{
			MaxBacklog: *maxBacklog,
			SpillDir:   *spillDir,
			Policy:     policy,
			AdmitRate:  *admitRate,
			DrainEvery: *drainEvery,
		}
		if *spillDir != "" {
			ov.HighWater = *highWater
		}
		opts = append(opts, stream.WithOverload(ov))
	}
	if *journalDir != "" {
		// the journal is keyed by everything that determines the emitted
		// byte sequence: the study config hash plus the trace seed
		dir, err := study.OpenJournal(*journalDir, cfg, *seed, *resume)
		if err != nil {
			return err
		}
		opts = append(opts, stream.WithJournal(dir))
		if *resume {
			opts = append(opts, stream.WithResume())
		}
	}

	sink, err := stream.NewFileSink(*out)
	if err != nil {
		return err
	}
	defer sink.Close()

	p, err := stream.New(s.Telescope, s.Pipeline, sink, opts...)
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

	traceCfg := stream.TraceConfig{
		Seed:          *seed,
		Rate:          *rate,
		From:          traceFrom.FirstWindow(),
		To:            (traceTo + 1).FirstWindow() - 1,
		JitterWindows: *jitter,
	}
	var packets, rejected, paused int64
	var streamErr error
	stream.Replay(traceCfg, s.Schedule.Sched, s.Telescope, func(ts time.Time, pkt packet.Packet) bool {
		if ctx.Err() != nil {
			streamErr = ctx.Err()
			return false
		}
		packets++
		ok, err := p.Offer(ts, pkt)
		if errors.Is(err, stream.ErrBackpressure) {
			// intake is pausing at the backlog bound; the replay has no way
			// to slow the source, so the packet is counted and dropped —
			// draining continues on the next offer
			paused++
			return true
		}
		if err != nil {
			streamErr = err
			return false
		}
		if !ok {
			rejected++
		}
		return true
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
		"streamjoin: %d packets streamed, %d batches, %d attacks, %d events, %d late drops (%.1fs)\n",
		packets, sink.Batches, sink.Attacks, sink.Events, p.LateDrops(), time.Since(start).Seconds())
	if overloaded {
		st := p.Overload()
		fmt.Fprintf(os.Stderr,
			"streamjoin: overload: %d offers rejected (%d admit-denied, %d shed late, %d sampled out, %d paused), %d batches spilled, peak backlog %d in memory\n",
			rejected+paused, st.AdmitDenied, st.ShedLate, st.SampledOut, st.Paused, st.SpilledBatches, st.MaxMemBatches)
	}
	return nil
}
