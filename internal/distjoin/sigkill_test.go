package distjoin

import (
	"context"
	"os"
	"os/exec"
	"sync"
	"testing"
	"time"
)

// sigkill_test.go is the one place the kill is real: a worker running as
// a separate OS process is SIGKILLed mid-run — no deferred cleanup, no
// goodbye, the kernel just closes the socket — and the run must still
// complete byte-identical on the surviving in-process worker.

// TestSIGKILLWorkerHelper is not a test: it is the worker process the
// SIGKILL test spawns (the standard re-exec helper pattern). It runs a
// fleet worker against the coordinator address in the environment until
// it is killed or the run completes.
func TestSIGKILLWorkerHelper(t *testing.T) {
	addr := os.Getenv("DISTJOIN_HELPER_ADDR")
	if addr == "" {
		t.Skip("helper process entry point, not a test")
	}
	// the parent owns the spool: a SIGKILLed process cannot remove a
	// temporary one of its own
	w := NewWorker("doomed", WithSpoolDir(os.Getenv("DISTJOIN_HELPER_SPOOL")))
	w.Run(context.Background(), addr)
	os.Exit(0)
}

func TestSIGKILLWorkerMidRun(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	wantEvents, wantReport := plainBaseline(t)

	coord, err := NewCoordinator(testConfig(),
		WithHeartbeatInterval(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}

	// one surviving in-process worker guarantees completion
	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		NewWorker("survivor").Run(wctx, coord.Addr())
	}()

	cmd := exec.Command(os.Args[0], "-test.run=TestSIGKILLWorkerHelper$")
	cmd.Env = append(os.Environ(), "DISTJOIN_HELPER_ADDR="+coord.Addr(), "DISTJOIN_HELPER_SPOOL="+t.TempDir())
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		// long enough for the helper to register and take work, short
		// enough to land mid-run; parity must hold wherever it lands
		time.Sleep(400 * time.Millisecond)
		cmd.Process.Kill()
		cmd.Wait()
	}()

	s, err := coord.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	<-killed
	wcancel()
	wg.Wait()
	assertParity(t, s, wantEvents, wantReport)
}
