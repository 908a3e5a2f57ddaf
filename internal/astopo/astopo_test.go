package astopo

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"dnsddos/internal/netx"
)

// OrgOf returns the organization record for an ASN.
func (t *Table) OrgOf(asn ASN) (Org, bool) {
	o, ok := t.orgs[asn]
	return o, ok
}

// Entry is one announced prefix.
type Entry struct {
	Prefix netx.Prefix
	ASN    ASN
}

func build(entries []Entry, orgs map[ASN]Org) *Table {
	b := NewBuilder()
	for _, e := range entries {
		b.Announce(e.Prefix, e.ASN)
	}
	for a, o := range orgs {
		b.SetOrg(a, o)
	}
	return b.Build()
}

func TestLookupLongestPrefixMatch(t *testing.T) {
	tbl := build([]Entry{
		{netx.MustParsePrefix("10.0.0.0/8"), 100},
		{netx.MustParsePrefix("10.1.0.0/16"), 200},
		{netx.MustParsePrefix("10.1.2.0/24"), 300},
	}, nil)
	cases := []struct {
		addr string
		want ASN
	}{
		{"10.9.9.9", 100},
		{"10.1.9.9", 200},
		{"10.1.2.9", 300},
	}
	for _, c := range cases {
		got, ok := tbl.Lookup(netx.MustParseAddr(c.addr))
		if !ok || got != c.want {
			t.Errorf("Lookup(%s) = %v,%v want %v", c.addr, got, ok, c.want)
		}
	}
	if _, ok := tbl.Lookup(netx.MustParseAddr("11.0.0.1")); ok {
		t.Error("unannounced space should miss")
	}
}

func TestLookupDefaultRoute(t *testing.T) {
	tbl := build([]Entry{{netx.Prefix{Addr: 0, Bits: 0}, 42}}, nil)
	if got, ok := tbl.Lookup(netx.MustParseAddr("203.0.113.7")); !ok || got != 42 {
		t.Errorf("default route lookup = %v,%v", got, ok)
	}
}

func TestLookupSlash32(t *testing.T) {
	tbl := build([]Entry{
		{netx.MustParsePrefix("8.8.8.8/32"), 15169},
		{netx.MustParsePrefix("8.8.8.0/24"), 1},
	}, nil)
	if got, _ := tbl.Lookup(netx.MustParseAddr("8.8.8.8")); got != 15169 {
		t.Errorf("/32 should win: %v", got)
	}
	if got, _ := tbl.Lookup(netx.MustParseAddr("8.8.8.9")); got != 1 {
		t.Errorf("sibling should match /24: %v", got)
	}
}

func TestDuplicateAnnouncementLastWins(t *testing.T) {
	tbl := build([]Entry{
		{netx.MustParsePrefix("192.0.2.0/24"), 1},
		{netx.MustParsePrefix("192.0.2.0/24"), 2},
	}, nil)
	if got, _ := tbl.Lookup(netx.MustParseAddr("192.0.2.5")); got != 2 {
		t.Errorf("last announcement should win: %v", got)
	}
}

func TestOrgNames(t *testing.T) {
	tbl := build(nil, map[ASN]Org{15169: {Name: "Google", Country: "US"}})
	if got := tbl.OrgName(15169); got != "Google" {
		t.Errorf("OrgName = %q", got)
	}
	if got := tbl.OrgName(65000); got != "AS65000" {
		t.Errorf("fallback OrgName = %q", got)
	}
	if o, ok := tbl.OrgOf(15169); !ok || o.Country != "US" {
		t.Errorf("OrgOf = %+v, %v", o, ok)
	}
}

func TestASNString(t *testing.T) {
	if ASN(13335).String() != "AS13335" {
		t.Error("ASN.String")
	}
}

// TestLookupMatchesLinearScan cross-checks the table against a brute-force
// longest-prefix match over random tables and addresses.
func TestLookupMatchesLinearScan(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0xa5))
		n := 1 + rng.IntN(30)
		entries := make([]Entry, n)
		for i := range entries {
			bits := rng.IntN(25) + 8
			addr := netx.Addr(rng.Uint32()) & (netx.Prefix{Bits: bits}).Mask()
			entries[i] = Entry{Prefix: netx.Prefix{Addr: addr, Bits: bits}, ASN: ASN(rng.Uint32N(1000) + 1)}
		}
		tbl := build(entries, nil)
		for trial := 0; trial < 50; trial++ {
			a := netx.Addr(rng.Uint32())
			if rng.IntN(2) == 0 { // bias toward hits
				e := entries[rng.IntN(n)]
				a = e.Prefix.RandomAddr(rng)
			}
			// linear longest-prefix match; among equal lengths the
			// later entry wins (insertion overwrite order)
			bestBits := -1
			var bestASN ASN
			for _, e := range entries {
				if e.Prefix.Contains(a) && e.Prefix.Bits >= bestBits {
					if e.Prefix.Bits > bestBits {
						bestBits = e.Prefix.Bits
						bestASN = e.ASN
					} else {
						bestASN = e.ASN
					}
				}
			}
			got, ok := tbl.Lookup(a)
			if ok != (bestBits >= 0) {
				return false
			}
			if ok && got != bestASN {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// trieReference is the table as a binary trie, as it was before Build
// flattened it into spans: a node per prefix bit, the last announcement
// of a prefix overwriting its node, a lookup walking the address's bits
// and keeping the deepest origin it passes.
type trieReference struct {
	nodes []trieNode // nodes[0] the root
}

// trieNode is one trie node; a child index of 0 (the root, never a
// child) means none.
type trieNode struct {
	child [2]int32
	asn   ASN
	set   bool
}

func newTrieReference(entries []Entry) *trieReference {
	t := &trieReference{nodes: make([]trieNode, 1, 1+len(entries))}
	for _, e := range entries {
		n := int32(0)
		for i := 0; i < e.Prefix.Bits; i++ {
			bit := (uint32(e.Prefix.Addr) >> (31 - uint(i))) & 1
			if t.nodes[n].child[bit] == 0 {
				t.nodes[n].child[bit] = int32(len(t.nodes))
				t.nodes = append(t.nodes, trieNode{})
			}
			n = t.nodes[n].child[bit]
		}
		t.nodes[n].asn = e.ASN
		t.nodes[n].set = true
	}
	return t
}

func (t *trieReference) lookup(addr netx.Addr) (ASN, bool) {
	var best ASN
	found := false
	for i, n := 0, int32(0); ; i++ {
		nd := &t.nodes[n]
		if nd.set {
			best, found = nd.asn, true
		}
		if i == 32 {
			break
		}
		if n = nd.child[(uint32(addr)>>(31-uint(i)))&1]; n == 0 {
			break
		}
	}
	return best, found
}

// TestLookupMatchesTrieReference holds the flattened table to the trie on
// random prefix sets that mix /0 and /32 with nested chains, prefixes
// sharing a first or a last address, adjacent siblings, duplicates with
// other origins and host bits left set, probing every prefix's first and
// last address, the addresses either side of them, the ends of the space
// and random ones.
func TestLookupMatchesTrieReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(43, 43))
	for set := 0; set < 400; set++ {
		var entries []Entry
		add := func(p netx.Prefix) {
			entries = append(entries, Entry{Prefix: p, ASN: ASN(rng.Uint32N(50))})
		}
		for n := rng.IntN(40); len(entries) < n; {
			bits := rng.IntN(33)
			addr := netx.Addr(rng.Uint32())
			if set%2 == 0 {
				addr &= 0xff0000ff // crowd the prefixes into few /8s
			}
			switch u := rng.IntN(10); {
			case u == 0:
				add(netx.Prefix{Addr: 0, Bits: 0})
			case u == 1:
				add(netx.Prefix{Addr: addr, Bits: 32})
			case u == 2 && len(entries) > 0:
				add(entries[rng.IntN(len(entries))].Prefix) // a duplicate
			case u <= 5 && len(entries) > 0:
				// nested in, or sharing an edge with, an earlier prefix
				outer := entries[rng.IntN(len(entries))].Prefix
				outer.Addr &= outer.Mask()
				inner := netx.Prefix{Bits: min(32, outer.Bits+1+rng.IntN(8))}
				switch rng.IntN(3) {
				case 0:
					inner.Addr = outer.First()
				case 1:
					inner.Addr = outer.Last()
				default:
					inner.Addr = outer.First() + netx.Addr(rng.Uint64N(outer.Size()))
				}
				inner.Addr &= inner.Mask()
				add(inner)
				if rng.IntN(2) == 0 && inner.Bits > 0 { // its sibling
					add(netx.Prefix{Addr: inner.Addr ^ netx.Addr(1)<<(32-inner.Bits), Bits: inner.Bits})
				}
			default:
				if rng.IntN(4) != 0 {
					addr &= (netx.Prefix{Bits: bits}).Mask()
				}
				add(netx.Prefix{Addr: addr, Bits: bits})
			}
		}
		ref := newTrieReference(entries)
		tbl := build(entries, nil)
		if tbl.Len() != len(entries) {
			t.Fatalf("set %d: Len %d for %d announcements", set, tbl.Len(), len(entries))
		}
		probes := []netx.Addr{0, 1, ^netx.Addr(0), ^netx.Addr(0) - 1}
		for _, e := range entries {
			first, last := e.Prefix.Addr&e.Prefix.Mask(), e.Prefix.Addr|^e.Prefix.Mask()
			probes = append(probes, first-1, first, first+1, last-1, last, last+1)
		}
		for range 64 {
			probes = append(probes, netx.Addr(rng.Uint32()))
		}
		for _, a := range probes {
			got, gotOK := tbl.Lookup(a)
			want, wantOK := ref.lookup(a)
			if got != want || gotOK != wantOK {
				t.Fatalf("set %d, %d announcements %v: Lookup(%v) = %v, %v; trie %v, %v", set, len(entries), entries, a, got, gotOK, want, wantOK)
			}
		}
	}
}
