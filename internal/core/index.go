// index.go holds the immutable nameserver-side index the join engine is
// built on (DESIGN §3.4): the NSIndex, derived from the world DB (and,
// when available, the openintel engine's per-domain NSSet cache):
// nameserver address → the NSSets containing it, NSSet → hosted-domain
// count, and the /24s that contain at least one nameserver. Built once per
// world and shared read-only by every join; per-day measurements are read
// beside it through the pipeline's DayStore (daystore.go). The attack side
// has no index: each join is one pass over the feed as it is (join.go).
package core

import (
	"math/bits"
	"sort"

	"dnsddos/internal/dnsdb"
	"dnsddos/internal/netx"
	"dnsddos/internal/nsset"
)

// NSIndex is the immutable nameserver-side join index. Build it once per
// world with BuildNSIndex and share it across pipelines and concurrent
// joins; nothing mutates it after construction.
type NSIndex struct {
	// nssetDomains maps each NSSet to the number of domains hosted on it.
	nssetDomains map[nsset.Key]int
	// nssetsByAddr maps a nameserver address to the sorted NSSets
	// containing it.
	nssetsByAddr map[netx.Addr][]nsset.Key
	// slash24HasNS marks /24s containing at least one nameserver.
	slash24HasNS map[netx.Prefix]bool
	// nsFilter is a one-bit-per-bucket filter over nameserver addresses.
	// Attack feeds are dominated by victims that are not DNS
	// infrastructure, so the join prefilters every victim with one shift
	// and one bit test before touching any map; only the few survivors
	// (true nameservers plus ~6% hash collisions) pay a real lookup.
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

// BuildNSIndex derives the nameserver-side index from the world DB.
// domainNSSets, when non-nil, is the precomputed per-domain NSSet key
// slice (openintel.Engine.DomainNSSets), indexed by DomainID, which
// skips the O(domains × set size) key recomputation; nil recomputes the
// keys from the DB.
func BuildNSIndex(db *dnsdb.DB, domainNSSets []nsset.Key) *NSIndex {
	ix := &NSIndex{
		nssetDomains: make(map[nsset.Key]int),
		nssetsByAddr: make(map[netx.Addr][]nsset.Key),
		slash24HasNS: make(map[netx.Prefix]bool),
	}
	for i := range db.Domains {
		var k nsset.Key
		if domainNSSets != nil {
			k = domainNSSets[i]
		} else {
			k = nsset.KeyOf(db.NSAddrs(dnsdb.DomainID(i)))
		}
		ix.nssetDomains[k]++
	}
	for k := range ix.nssetDomains {
		for i := 0; i < k.Size(); i++ {
			a := k.Addr(i)
			ix.nssetsByAddr[a] = append(ix.nssetsByAddr[a], k)
		}
	}
	// size the prefilter at ≥16 bits per nameserver address (~6% false
	// positives), minimum 1024 bits
	nbits := 1024
	for nbits < 16*len(ix.nssetsByAddr) {
		nbits <<= 1
	}
	ix.nsFilter = make([]uint64, nbits/64)
	ix.nsFilterShift = 32 - uint(bits.TrailingZeros(uint(nbits)))
	for a, sets := range ix.nssetsByAddr {
		sort.Slice(sets, func(i, j int) bool { return sets[i] < sets[j] })
		ix.slash24HasNS[a.Slash24()] = true
		h := uint32(a) * 2654435761
		idx := h >> ix.nsFilterShift
		ix.nsFilter[idx>>6] |= 1 << (idx & 63)
	}
	return ix
}

// NSSetsContaining returns the NSSets containing a nameserver address,
// sorted. The slice is shared; treat it as read-only.
func (ix *NSIndex) NSSetsContaining(a netx.Addr) []nsset.Key {
	return ix.nssetsByAddr[a]
}

// DomainCount returns how many registered domains delegate to NSSet k.
func (ix *NSIndex) DomainCount(k nsset.Key) int { return ix.nssetDomains[k] }

// HasNSInSlash24 reports whether the /24 containing a holds at least one
// nameserver.
func (ix *NSIndex) HasNSInSlash24(a netx.Addr) bool {
	return ix.slash24HasNS[a.Slash24()]
}
