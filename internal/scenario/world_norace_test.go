//go:build !race

package scenario

import (
	"runtime"
	"testing"
)

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

// studyScheduleBytesBudget is 1.15 × the 856,536 bytes GenerateSchedule
// allocates at the repo benchmark's study scale (benchScales[0]): 10,081
// components of 72 bytes appended to one array reserved for them and
// sorted in place, the sort order and the port lists. It was 1,586,050
// when the components were drawn into chunks and copied into the array,
// and 2,155,516 when the draw held each component in 64 bytes and
// assemble widened it to 136.
const studyScheduleBytesBudget = 985_000

// TestGenerateScheduleBytesBudget pins the bytes drawing the study-scale
// schedule allocates, the least of three draws: the draw is a pure
// function of its config, and a goroutine another test left behind can
// only add to one.
func TestGenerateScheduleBytesBudget(t *testing.T) {
	w, acfg := benchScale(0)
	least := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		GenerateSchedule(acfg, w)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("GenerateSchedule: %d bytes", least)
	if least > studyScheduleBytesBudget {
		t.Errorf("GenerateSchedule allocated %d bytes, budget %d", least, studyScheduleBytesBudget)
	}
}
