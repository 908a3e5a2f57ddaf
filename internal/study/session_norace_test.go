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

// newSessionAllocBudget is 1.3 × the 3,358 objects NewSession allocates
// for metricsConfig (1 500 domains, 1 500 attacks and the case studies over
// 17 months); it was 114,843 with a port map per window, a Key per domain
// and a formatted name and an NS copy per domain, 17,199 with a slice
// and a port list per generated attack and a heap node per prefix bit of
// the AS table, and 3,444 with the whole telescope feed held.
const newSessionAllocBudget = 4400

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

// TestNewSessionBytesBudget pins the bytes building a session allocates,
// at metricsConfig and at the repo benchmark's study scale: 1.15 × the
// 6.23 MB and 14.0 MB measured with the feed folded as it is drawn. Held
// whole, the feed took them to 8.16 MB and 24.84 MB.
func TestNewSessionBytesBudget(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    Config
		budget uint64
	}{
		{"metricsConfig", metricsConfig(), 7_160_000},
		{"benchmark scale", benchmarkScaleConfig(), 16_100_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// the least of three builds: a goroutine another test left
			// behind can only add to one
			least := ^uint64(0)
			for range 3 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if _, err := NewSession(context.Background(), tc.cfg, obs.New()); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				least = min(least, after.TotalAlloc-before.TotalAlloc)
			}
			t.Logf("NewSession: %d bytes", least)
			if least > tc.budget {
				t.Errorf("NewSession allocated %d bytes, budget %d", least, tc.budget)
			}
		})
	}
}
