// Command joinworker is one member of the distributed sweep fleet
// (DESIGN §3.6). It connects to a joinpipe coordinator, rebuilds the
// study world deterministically from the configuration the coordinator
// sends, and executes assigned day-sweeps until the run completes; the
// coordinator joins the sealed days itself.
//
// The first SIGINT/SIGTERM triggers a graceful drain: the worker
// finishes its in-flight task, refuses new work, deregisters, and
// exits 0 — the coordinator reassigns nothing. A second signal aborts
// immediately (crash-equivalent): the coordinator's liveness machinery
// notices the dead connection and reassigns the in-flight task
// elsewhere.
//
// Usage:
//
//	joinworker -connect HOST:PORT [-name ID] [-metrics-addr :9091]
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

	"dnsddos/internal/distjoin"
	"dnsddos/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("joinworker: ")
	if err := run(); err != nil {
		if errors.Is(err, context.Canceled) {
			log.Fatal("aborted (in-flight work abandoned; the coordinator will reassign it)")
		}
		log.Fatal(err)
	}
}

func run() error {
	connect := flag.String("connect", "", "coordinator address (required)")
	name := flag.String("name", "", "worker name in fleet metrics and logs (default: worker-<pid>)")
	metricsAddr := flag.String("metrics-addr", "", "serve this worker's /metrics.json on this address (empty disables)")
	flag.Parse()

	if *connect == "" {
		return fmt.Errorf("-connect HOST:PORT is required")
	}
	if *name == "" {
		*name = fmt.Sprintf("worker-%d", os.Getpid())
	}

	reg := obs.New()
	if *metricsAddr != "" {
		ms, err := obs.Serve(*metricsAddr, reg)
		if err != nil {
			return err
		}
		defer ms.Close()
		fmt.Fprintf(os.Stderr, "joinworker: observability on http://%s/metrics.json\n", ms.Addr())
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	w := distjoin.NewWorker(*name, distjoin.WithWorkerMetrics(reg))

	// First signal drains gracefully, second aborts.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "joinworker: draining (finishing in-flight task; signal again to abort)")
		w.Drain()
		<-sigs
		cancel()
	}()

	if err := w.Run(ctx, *connect); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "joinworker: %s done\n", *name)
	return nil
}
