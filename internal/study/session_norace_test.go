//go:build !race

package study

import (
	"context"
	"runtime"
	"testing"

	"dnsddos/internal/obs"
)

// raceEnabled reports that the race detector is on (race_test.go).
const raceEnabled = false

// newSessionAllocBudget is 1.3 × the 1,938 objects NewSession allocates
// for metricsConfig (1 500 domains, 1 500 attacks and the case studies over
// 17 months); it was 114,843 with a port map per window, a Key per domain
// and a formatted name and an NS copy per domain, 17,199 with a slice
// and a port list per generated attack and a heap node per prefix bit of
// the AS table, 3,444 with the whole telescope feed held, 3,358 before
// the world was built in one step per name, and 1,943 with the schedule
// drawn into chunks of components.
const newSessionAllocBudget = 2520

// TestNewSessionAllocBudget pins what building a session allocates at a
// small fixed world. The count is exact for a given toolchain (the build
// is a pure function of the config); the race detector's instrumentation
// changes it, so the file is built without it.
func TestNewSessionAllocBudget(t *testing.T) {
	cfg := metricsConfig()
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := NewSession(context.Background(), cfg, obs.New()); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("NewSession: %.0f allocations", allocs)
	if allocs > newSessionAllocBudget {
		t.Errorf("NewSession allocated %.0f objects, budget %d", allocs, newSessionAllocBudget)
	}
}

// TestNewSessionBytesBudget pins the bytes building a session allocates
// and the heap it leaves live, at metricsConfig, at the repo benchmark's
// study scale and at QuickConfig with 60,000 attacks, where the attacks a
// fold holds open and the schedule's arrays outweigh the world. The
// budgets are 1.15 × what a build allocates and leaves live after a
// collection, the session still held, with the schedule drawn into its
// one array, reserved for the multi-vector seconds' mean + 6σ + 16, and
// sorted there, and 64-byte attacks: 3.90, 6.83 and 22.5 MB allocated,
// 0.78, 3.25 and 13.4 MB live (the dense case holds 100,662 components).
// With the draw in chunks of components copied into the array and 80-byte
// attacks they were 4.52, 8.02 and 32.1 MB and 0.80, 3.34 and 14.3 MB;
// with 136-byte components and the bit trie 5.35, 9.28 and 38.4 MB and
// 1.01, 4.04 and 20.8 MB. Finalizing every candidate at the end, with
// the schedule reserved at twice its attacks and copied, the allocations
// were 6.23, 14.0 and 94.7 MB; holding the feed whole too, 8.16 and
// 24.84 MB at the first two. A schedule that kept a reserve much longer
// than its attacks would pin the dead tail; the reserve's tail is a few
// dozen components, about 4 kB at the benchmark's scale.
func TestNewSessionBytesBudget(t *testing.T) {
	dense := QuickConfig()
	dense.Attacks.TotalAttacks = 60000
	for _, tc := range []struct {
		name        string
		cfg         Config
		alloc, live uint64
	}{
		{"metricsConfig", metricsConfig(), 4_482_000, 891_000},
		{"benchmark scale", benchmarkScaleConfig(), 7_857_000, 3_734_000},
		{"dense", dense, 25_931_000, 15_379_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// the least of three builds: a goroutine another test left
			// behind can only add to one
			alloc, live := ^uint64(0), ^uint64(0)
			for range 3 {
				var before, after, collected runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				sess, err := NewSession(context.Background(), tc.cfg, obs.New())
				if err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				runtime.GC()
				runtime.ReadMemStats(&collected)
				runtime.KeepAlive(sess)
				alloc = min(alloc, after.TotalAlloc-before.TotalAlloc)
				live = min(live, collected.HeapAlloc-min(collected.HeapAlloc, before.HeapAlloc))
			}
			t.Logf("NewSession: %d bytes allocated, %d live after a collection", alloc, live)
			if alloc > tc.alloc {
				t.Errorf("NewSession allocated %d bytes, budget %d", alloc, tc.alloc)
			}
			if live > tc.live {
				t.Errorf("NewSession left %d bytes live, budget %d", live, tc.live)
			}
		})
	}
}
