package distjoin

import (
	"context"
	"sync"
	"testing"
	"time"

	"dnsddos/internal/netx"
	"dnsddos/internal/obs"
)

// leak_test.go: teardown hygiene. Cancelling the coordinator's context
// with live workers attached must unwind every goroutine — accept loop,
// per-connection readers, liveness ticker, retry timers — not just
// return from Run.

func TestCoordinatorCtxCancelWithLiveWorkersNoLeaks(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	netx.NoGoroutineLeaks(t)

	reg := obs.New()
	coord, err := NewCoordinator(testConfig(),
		WithHeartbeatInterval(50*time.Millisecond), WithMinWorkers(2), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}

	wctx, wcancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for _, name := range []string{"w1", "w2"} {
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			NewWorker(name).Run(wctx, coord.Addr())
		}(name)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		// cancel the moment both workers are registered and live, so the
		// teardown really does race in-flight work
		for i := 0; i < 2000; i++ {
			if reg.Snapshot().Gauges["distjoin.workers_live"] >= 2 {
				break
			}
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	if s, err := coord.Run(ctx); err == nil && ctx.Err() != nil {
		// the run squeaked in before the cancel — legal, but then it must
		// have produced a complete study
		if s == nil {
			t.Fatal("run reported success with no study")
		}
	}
	// the coordinator is gone; workers lose their connections and return
	wcancel()
	wg.Wait()
}
