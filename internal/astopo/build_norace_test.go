//go:build !race

package astopo

import (
	"math/rand/v2"
	"testing"

	"dnsddos/internal/netx"
)

// TestBuildAllocatesRangesOnce holds Build to one allocation for its
// ranges beside the table and its org map, at any prefix count. The trie
// it replaced grew its node array by append.
func TestBuildAllocatesRangesOnce(t *testing.T) {
	for _, n := range []int{0, 1, 100, 5000} {
		b := NewBuilder()
		rng := rand.New(rand.NewPCG(uint64(n), 1))
		for range n {
			bits := 8 + rng.IntN(25)
			b.Announce(netx.Prefix{Addr: netx.Addr(rng.Uint32()) & (netx.Prefix{Bits: bits}).Mask(), Bits: bits}, ASN(rng.Uint32N(100)))
		}
		if allocs := testing.AllocsPerRun(10, func() { b.Build() }); allocs > 3 {
			t.Errorf("%d prefixes: Build allocates %v objects, want ≤ 3", n, allocs)
		}
	}
}
