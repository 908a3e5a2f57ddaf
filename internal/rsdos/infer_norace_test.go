//go:build !race

package rsdos_test

import (
	"runtime"
	"testing"

	"dnsddos/internal/rsdos"
)

// inferBytesBudget is 1.15 × the 3.95 MB Infer allocates over the repo
// benchmark's feed (BenchmarkInfer's), folding each observation into its
// victim's run as it is taken. It was 30.2 MB when the fold copied every
// qualifying observation into a slot and held it until its window closed,
// which Infer's one close at the end made the whole feed.
const inferBytesBudget = 4_541_000

// TestInferBytesBudget pins the bytes Infer allocates over the repo
// benchmark's feed: a fold that holds observations again fails it. The
// race detector's instrumentation changes the count, so the file is built
// without it.
func TestInferBytesBudget(t *testing.T) {
	obs := benchFeed()
	// the least of three: a goroutine another test left behind can only
	// add to one
	alloc := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		attacks := rsdos.Infer(rsdos.DefaultConfig(), obs)
		runtime.ReadMemStats(&after)
		if len(attacks) == 0 {
			t.Fatal("no attack inferred")
		}
		alloc = min(alloc, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("Infer: %d bytes allocated", alloc)
	if alloc > inferBytesBudget {
		t.Errorf("Infer allocated %d bytes, budget %d", alloc, inferBytesBudget)
	}
}
