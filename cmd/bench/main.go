// Command bench prints the degraded-mode sweep of the serving stack:
// it runs the internal/e2ebench modes (authserver fleet + dnsload
// through the retrying resolver under scripted fault windows) over
// loopback sockets at e2ebench.Default() size and prints one summary
// row per mode. The numbers are wall-clock on this host and gate
// nothing; gated numbers live in benchmark/ only.
//
//	go run ./cmd/bench                       # all seven modes
//	go run ./cmd/bench -modes baseline,chaos # a subset
//
// Exit codes: 0 ok, 2 usage or run error.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dnsddos/internal/e2ebench"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	cfg := e2ebench.Default()
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Uint64Var(&cfg.Seed, "seed", cfg.Seed, "run seed")
	modes := fs.String("modes", "", "comma-separated mode subset (default: all modes)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	for _, m := range strings.Split(*modes, ",") {
		if m = strings.TrimSpace(m); m != "" {
			cfg.Modes = append(cfg.Modes, m)
		}
	}

	start := time.Now()
	rep, err := e2ebench.Run(ctx, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "mode sweep: %d modes, %d+%d rounds x %d queries, fleet of %d, in %s\n\n",
		len(rep.Modes), cfg.Rounds, cfg.Warmup, cfg.Queries, cfg.Servers,
		time.Since(start).Round(time.Millisecond))
	fmt.Fprint(stdout, rep.SummaryTable())
	return 0
}
