package distjoin

import (
	"context"
	"path/filepath"
	"testing"
)

// spool_test.go covers WithSpoolDir: the worker installs the day files
// the coordinator streams at join setup into the named directory (instead
// of a temporary one) and runs its shard joins against the mmap-backed
// views over it. The contract is the usual one — byte-identical events
// and report to the single-process run — plus the files staying behind
// in the directory the caller chose.

func TestSpoolWorkerParity(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	wantEvents, wantReport := plainBaseline(t)

	spool := t.TempDir()
	// a single worker handles every sweep and every join range, so every
	// day file of the run must land in its spool
	workers := []*Worker{NewWorker("columnar", WithSpoolDir(spool))}
	s, _, _, err := runFleet(t, context.Background(), testConfig(), nil, workers)
	if err != nil {
		t.Fatal(err)
	}
	assertParity(t, s, wantEvents, wantReport)

	files, err := filepath.Glob(filepath.Join(spool, "day_*.dcol"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	if want := int(cfg.ToDay-cfg.FromDay) + 1; len(files) != want {
		t.Fatalf("spool holds %d day files, want %d: %v", len(files), want, files)
	}
}
