package daystore

import (
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dnsddos/internal/atomicfile"
)

// seal_kill_test.go makes the crash in "crash-safe seal" real: a child
// process seals days in a tight loop and is SIGKILLed at an arbitrary
// moment — no deferred cleanup, no flush, the kernel just drops the
// process. The atomic-write discipline (synced temp, rename, parent-dir
// fsync) must leave the directory in a state where every *visible* day
// file opens and validates; the only permissible debris is unpublished
// *.tmp-* leftovers, which Open ignores and Clear removes.

// TestSealKillHelper is the child entry point (standard re-exec helper
// pattern), not a test: it seals the same rotating set of days forever
// until killed.
func TestSealKillHelper(t *testing.T) {
	dir := os.Getenv("DAYSTORE_SEAL_HELPER_DIR")
	if dir == "" {
		t.Skip("helper process entry point, not a test")
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; ; i++ {
		// vary world size and day count so the kill can land on a fresh
		// seal or a replacement seal of any day alike
		agg := randomAggregator(rng, 3+i%5, 1+i%4)
		if err := sealDays(dir, agg.Snapshot()); err != nil {
			os.Exit(1)
		}
	}
}

func TestSealSurvivesSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=TestSealKillHelper$")
	cmd.Env = append(os.Environ(), "DAYSTORE_SEAL_HELPER_DIR="+dir)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// long enough for many seal iterations, arbitrary enough that the
	// kill lands anywhere in the write/sync/rename/dirsync sequence
	time.Sleep(300 * time.Millisecond)
	cmd.Process.Kill()
	cmd.Wait()

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var sealed, leftovers int
	for _, e := range entries {
		name := e.Name()
		if day, ok := parseFileName(name); ok {
			sealed++
			v, err := OpenDay(filepath.Join(dir, name), day)
			if err != nil {
				t.Fatalf("visible day file %s does not validate after SIGKILL: %v", name, err)
			}
			v.Close()
			continue
		}
		if final, ok := atomicfile.Leftover(name); ok {
			if _, ok := parseFileName(final); ok {
				leftovers++
				continue
			}
		}
		t.Fatalf("unexpected debris %q after SIGKILL", name)
	}
	if sealed == 0 {
		t.Fatal("child was killed before sealing anything; lengthen the grace period")
	}
	t.Logf("after SIGKILL: %d valid sealed files, %d temp leftovers", sealed, leftovers)

	// The whole-directory read path agrees, and Clear erases the debris.
	set, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := set.Verify(); err != nil {
		t.Fatalf("Verify after SIGKILL: %v", err)
	}
	set.Close()
	if err := Clear(dir); err != nil {
		t.Fatal(err)
	}
	rest, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range rest {
		if strings.Contains(e.Name(), fileSuffix) {
			t.Fatalf("Clear left %q", e.Name())
		}
	}
}
