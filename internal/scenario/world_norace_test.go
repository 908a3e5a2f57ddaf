//go:build !race

package scenario

import "testing"

// serveWorldAllocBudget is 1.15 × the 901 objects GenerateWorld allocates
// for the serve_clean world (2,000 domains on 20 generic providers); it
// was 1,775 when every nameserver formatted its group's host label and
// its own name through fmt. Formatting each
// nameserver's host name on its own again (its label and a Sprintf) reads
// 1,465.
const serveWorldAllocBudget = 1036

// TestGenerateWorldAllocBudget pins what building the serve_clean world
// allocates. The count is exact for a given toolchain (the build is a pure
// function of the config); the race detector's instrumentation changes
// it, so the file is built without it.
func TestGenerateWorldAllocBudget(t *testing.T) {
	cfg := worldConfigs()[1].cfg
	allocs := testing.AllocsPerRun(3, func() { GenerateWorld(cfg) })
	t.Logf("GenerateWorld: %.0f allocations", allocs)
	if allocs > serveWorldAllocBudget {
		t.Errorf("GenerateWorld allocated %.0f objects, budget %d", allocs, serveWorldAllocBudget)
	}
}
