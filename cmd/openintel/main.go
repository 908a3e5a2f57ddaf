// Command openintel runs the active-measurement platform over the simulated
// data plane for a day range and writes the per-query records as JSON
// lines — the OpenINTEL-style raw measurement output. SIGINT/SIGTERM stop
// the sweep within a thousand domains; the records written so far are
// flushed and the command exits non-zero.
//
// Usage:
//
//	openintel [-from YYYY-MM-DD] [-to YYYY-MM-DD] [-out FILE] [-domains N]
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dnsddos/internal/clock"
	"dnsddos/internal/nsset"
	"dnsddos/internal/openintel"
	"dnsddos/internal/resolver"
	"dnsddos/internal/scenario"
	"dnsddos/internal/simnet"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("openintel: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	fromS := flag.String("from", "2020-11-29", "first measured day (YYYY-MM-DD)")
	toS := flag.String("to", "2020-12-02", "last measured day (YYYY-MM-DD)")
	out := flag.String("out", "", "output JSONL file (default stdout)")
	domains := flag.Int("domains", 5000, "world size")
	flag.Parse()

	from, err := time.Parse("2006-01-02", *fromS)
	if err != nil {
		return fmt.Errorf("bad -from: %w", err)
	}
	to, err := time.Parse("2006-01-02", *toS)
	if err != nil {
		return fmt.Errorf("bad -to: %w", err)
	}

	wcfg := scenario.DefaultWorldConfig()
	wcfg.Domains = *domains
	w := scenario.GenerateWorld(wcfg)
	sched := scenario.GenerateSchedule(scenario.DefaultAttackConfig(), w)
	net := simnet.New(simnet.DefaultParams(), w.DB, sched.Sched, sched.Blackouts...)
	res := resolver.New(resolver.DefaultConfig(), w.DB, net)
	engine := openintel.NewEngine(w.DB, res, 42)

	var sink *openintel.RecordWriter
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		bw := bufio.NewWriter(f)
		defer bw.Flush()
		sink = openintel.NewRecordWriter(bw)
	} else {
		sink = openintel.NewRecordWriter(os.Stdout)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var n, fails int
	err = engine.RunRangeContext(ctx, clock.DayOf(from), clock.DayOf(to), nil, func(r openintel.Record) {
		n++
		if r.Status != nsset.StatusOK {
			fails++
		}
		if err := sink.Write(r); err != nil {
			log.Fatalf("writing record: %v", err)
		}
	})
	fmt.Fprintf(os.Stderr, "openintel: %d measurements, %d failed (%.2f%%)\n",
		n, fails, 100*float64(fails)/float64(n))
	return err
}
