package distjoin

import (
	"context"
	"net"

	"dnsddos/internal/clock"
)

// The two hooks only the chaos and parity suites set.

// withDialer replaces the worker's TCP dialer, to wrap the control
// connection in a faultinject stream.
func withDialer(dial func(ctx context.Context, addr string) (net.Conn, error)) WorkerOption {
	return func(w *Worker) { w.dial = dial }
}

// withBeforeSweep runs f at the start of every assigned day-sweep attempt,
// inside the attempt's panic isolation — the distributed twin of
// study.WithBeforeDay and the suites' poison hook: a panic here is
// reported to the coordinator as a task failure with its stack.
func withBeforeSweep(f func(clock.Day)) WorkerOption {
	return func(w *Worker) { w.beforeSweep = f }
}
