// index.go holds the immutable nameserver-side index the join engine is
// built on (DESIGN §3.4): the NSIndex, flat arrays over an NSSet table —
// every member address, ascending, with the IDs of the NSSets containing
// it, ascending by key; a hosted-domain count per ID; the /24s holding a
// nameserver; and a bit filter over the addresses. A study builds it once
// per session, over its measurement engine's table, for every pipeline
// (WithNSIndex) and for its sweep's demand. Per-day measurements are read
// beside it through the pipeline's DayStore (daystore.go); the attack side
// has no index: each join is one pass over the feed (join.go).
package core

import (
	"math/bits"
	"slices"

	"dnsddos/internal/netx"
	"dnsddos/internal/nsset"
)

// NSIndex is the immutable nameserver-side join index. Build it once per
// NSSet table with NewNSIndex and share it across pipelines and concurrent
// joins; nothing mutates it after construction.
type NSIndex struct {
	keys    []nsset.Key // by ID
	domains []int32     // hosted-domain count, by ID
	// addrs is every member address of a hosting NSSet, ascending and
	// distinct; the NSSets containing addrs[j] are ids[first[j]:first[j+1]],
	// ascending by key.
	addrs    []netx.Addr
	first    []int32
	ids      []nsset.ID
	slash24s []netx.Addr // the network addresses of the /24s holding one, ascending
	// nsFilter is a one-bit-per-bucket filter over addrs. Attack feeds are
	// dominated by victims that are not DNS infrastructure, so the join
	// prefilters every victim with one shift and one bit test; only the
	// survivors (nameservers plus ~6% hash collisions) pay a search.
	nsFilter      []uint64
	nsFilterShift uint
}

// mayBeNS is the prefilter probe: false means a is definitely not a
// nameserver address; true means "check properly".
func (ix *NSIndex) mayBeNS(a netx.Addr) bool {
	h := uint32(a) * 2654435761 // Knuth multiplicative hash
	idx := h >> ix.nsFilterShift
	return ix.nsFilter[idx>>6]&(1<<(idx&63)) != 0
}

// NewNSIndex builds the index over tab's NSSets that host a domain:
// domainIDs holds each domain's NSSet ID in tab, indexed by DomainID
// (openintel.Engine.DomainNSSets). NSSets added to tab later are not in
// the index.
func NewNSIndex(tab *nsset.Interner, domainIDs []nsset.ID) *NSIndex {
	keys, sorted := tab.Sorted()
	ix := &NSIndex{keys: keys, domains: make([]int32, len(keys))}
	for _, id := range domainIDs {
		ix.domains[id]++
	}
	// every (member address, rank of the NSSet by key) pair, ascending
	size := 0
	for _, k := range keys {
		size += k.Size()
	}
	pairs := make([]uint64, 0, size)
	for rank, id := range sorted {
		for i := 0; ix.domains[id] > 0 && i < keys[id].Size(); i++ {
			pairs = append(pairs, uint64(keys[id].Addr(i))<<32|uint64(rank))
		}
	}
	slices.Sort(pairs)
	ix.ids, ix.first = make([]nsset.ID, len(pairs)), make([]int32, 0, len(pairs)+1)
	ix.addrs, ix.slash24s = make([]netx.Addr, 0, len(pairs)), make([]netx.Addr, 0, len(pairs))
	for i, p := range pairs {
		if a := netx.Addr(p >> 32); len(ix.addrs) == 0 || ix.addrs[len(ix.addrs)-1] != a {
			ix.addrs = append(ix.addrs, a)
			ix.first = append(ix.first, int32(i))
		}
		ix.ids[i] = sorted[uint32(p)]
	}
	ix.first = append(ix.first, int32(len(pairs)))
	// size the prefilter at ≥16 bits per nameserver address (~6% false
	// positives), minimum 1024 bits
	nbits := 1024
	for nbits < 16*len(ix.addrs) {
		nbits <<= 1
	}
	ix.nsFilter = make([]uint64, nbits/64)
	ix.nsFilterShift = 32 - uint(bits.TrailingZeros(uint(nbits)))
	for _, a := range ix.addrs {
		h := uint32(a) * 2654435761
		idx := h >> ix.nsFilterShift
		ix.nsFilter[idx>>6] |= 1 << (idx & 63)
		if n := a.Slash24().Addr; len(ix.slash24s) == 0 || ix.slash24s[len(ix.slash24s)-1] != n {
			ix.slash24s = append(ix.slash24s, n)
		}
	}
	return ix
}

// NSSetsContaining returns the IDs of the NSSets containing a nameserver
// address, ascending by key. The slice is shared; treat it as read-only.
func (ix *NSIndex) NSSetsContaining(a netx.Addr) []nsset.ID {
	if !ix.mayBeNS(a) {
		return nil
	}
	j, ok := slices.BinarySearch(ix.addrs, a)
	if !ok {
		return nil
	}
	return ix.ids[ix.first[j]:ix.first[j+1]:ix.first[j+1]]
}

// Key returns the key of the NSSet with the given ID.
func (ix *NSIndex) Key(id nsset.ID) nsset.Key { return ix.keys[id] }

// DomainCount returns how many registered domains delegate to the NSSet
// with the given ID.
func (ix *NSIndex) DomainCount(id nsset.ID) int { return int(ix.domains[id]) }

// HasNSInSlash24 reports whether the /24 containing a holds at least one
// nameserver.
func (ix *NSIndex) HasNSInSlash24(a netx.Addr) bool {
	_, ok := slices.BinarySearch(ix.slash24s, a.Slash24().Addr)
	return ok
}
