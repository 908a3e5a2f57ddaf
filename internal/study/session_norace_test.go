//go:build !race

package study

import (
	"context"
	"testing"

	"dnsddos/internal/obs"
)

// raceEnabled reports that the race detector is on (race_test.go).
const raceEnabled = false

// newSessionAllocBudget is 1.3 × the 4,517 objects NewSession allocates
// for metricsConfig (1 500 domains, 1 500 attacks and the case studies over
// 17 months); it was 114,843 with a port map per window, a Key per domain
// and a formatted name and an NS copy per domain, and 17,199 with a slice
// and a port list per generated attack and a heap node per prefix bit of
// the AS table.
const newSessionAllocBudget = 5900

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
