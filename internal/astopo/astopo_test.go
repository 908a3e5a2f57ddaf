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

// TestLookupMatchesLinearScan cross-checks the trie against a brute-force
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
