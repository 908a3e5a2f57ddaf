//go:build !race

package daystore_test

import (
	"os"
	"testing"
)

// openAllocBudget is 1.15 × the objects per sealed day that Open,
// Verify and Close of the join_dense directory allocate: 3.11 (466 for
// its 150 days: each day's name, its path and the path's C string, and 16
// per directory). It was 10.25 (1,537) when Open read DirEntry objects,
// built each day's path and a slot of its own, and a lazy open went
// through an os.File and its Stat, a View of its own and an unmap closure.
const openAllocBudget = 3.57

// TestOpenAllocBudget pins what a cold open of a sealed 150-day directory
// allocates, per day. The race detector's instrumentation changes the
// count, so the file is built without it.
func TestOpenAllocBudget(t *testing.T) {
	dir := sealJoinDense(t)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() { openVerify(t, dir) })
	perDay := allocs / float64(len(entries))
	t.Logf("Open+Verify+Close of %d days: %.0f allocations, %.2f per day", len(entries), allocs, perDay)
	if perDay > openAllocBudget {
		t.Errorf("a cold open allocated %.2f objects per day, budget %v", perDay, openAllocBudget)
	}
}
