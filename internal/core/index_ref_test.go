package core

import (
	"fmt"
	"slices"

	"dnsddos/internal/dnsdb"
	"dnsddos/internal/netx"
	"dnsddos/internal/nsset"
)

// index_ref_test.go keeps the map-based nameserver index as the reference
// the flat NSIndex is held to (index_test.go): NSSet → hosted-domain
// count, address → the sorted NSSets containing it, and the set of /24s
// holding a nameserver, each a map built straight from the world DB.

// refIndex is the map-based reference index.
type refIndex struct {
	nssetDomains map[nsset.Key]int
	nssetsByAddr map[netx.Addr][]nsset.Key
	slash24HasNS map[netx.Prefix]bool
}

// buildRefIndex derives the reference index from the world DB.
func buildRefIndex(db *dnsdb.DB) *refIndex {
	ix := &refIndex{
		nssetDomains: make(map[nsset.Key]int),
		nssetsByAddr: make(map[netx.Addr][]nsset.Key),
		slash24HasNS: make(map[netx.Prefix]bool),
	}
	for i := range db.Domains {
		ix.nssetDomains[nsset.KeyOf(db.NSAddrs(dnsdb.DomainID(i)))]++
	}
	for k := range ix.nssetDomains {
		for i := 0; i < k.Size(); i++ {
			a := k.Addr(i)
			ix.nssetsByAddr[a] = append(ix.nssetsByAddr[a], k)
		}
	}
	for a, sets := range ix.nssetsByAddr {
		slices.Sort(sets)
		ix.slash24HasNS[a.Slash24()] = true
	}
	return ix
}

// CheckNSIndex holds ix, an index of db's NSSets, to the reference built
// from db: for every nameserver address and the addresses beside it, the
// NSSets containing it (order included), each one's hosted-domain count,
// and whether its /24 holds a nameserver; and the prefilter passes every
// nameserver address. It returns the first disagreement.
func CheckNSIndex(ix *NSIndex, db *dnsdb.DB) error {
	ref := buildRefIndex(db)
	var probes []netx.Addr
	for a := range ref.nssetsByAddr {
		probes = append(probes, a, a-1, a+1, a^0x100, a|0xff)
	}
	slices.Sort(probes)
	for _, a := range slices.Compact(probes) {
		want := ref.nssetsByAddr[a]
		if len(want) > 0 && !ix.mayBeNS(a) {
			return fmt.Errorf("the prefilter refuses nameserver address %v", a)
		}
		got := ix.NSSetsContaining(a)
		keys := make([]nsset.Key, len(got))
		for i, id := range got {
			keys[i] = ix.Key(id)
			if n, want := ix.DomainCount(id), ref.nssetDomains[keys[i]]; n != want {
				return fmt.Errorf("NSSet %v hosts %d domains, the reference says %d", keys[i], n, want)
			}
		}
		if !slices.Equal(keys, want) {
			return fmt.Errorf("the NSSets containing %v are %v, the reference says %v", a, keys, want)
		}
		if got, want := ix.HasNSInSlash24(a), ref.slash24HasNS[a.Slash24()]; got != want {
			return fmt.Errorf("HasNSInSlash24(%v) = %v, the reference says %v", a, got, want)
		}
	}
	return nil
}

// IndexOf returns the nameserver index a pipeline joins over.
func IndexOf(p *Pipeline) *NSIndex { return p.ix }
