//go:build !race

package authserver

import "testing"

// TestFromDBAllocBudget pins what loading the serve_clean world's zone
// allocates: 20 objects, against 5,915 record by record and 48 with the
// two maps grown from empty. The count is exact for a given toolchain;
// the race detector's instrumentation changes it, so the file is built
// without it.
func TestFromDBAllocBudget(t *testing.T) {
	const budget = 23 // 1.15 × 20
	db := serveWorld().DB
	allocs := testing.AllocsPerRun(3, func() { FromDB(db) })
	t.Logf("FromDB: %.0f allocations", allocs)
	if allocs > budget {
		t.Errorf("FromDB allocated %.0f objects, budget %d", allocs, budget)
	}
}
