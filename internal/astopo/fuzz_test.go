package astopo

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dnsddos/internal/netx"
)

// lookupLinear is the brute-force longest-prefix match over entries in
// announcement order: among equal lengths the later entry wins, as Build's
// overwrite does.
func lookupLinear(entries []Entry, a netx.Addr) (ASN, bool) {
	bestBits, best := -1, ASN(0)
	for _, e := range entries {
		if e.Prefix.Contains(a) && e.Prefix.Bits >= bestBits {
			bestBits, best = e.Prefix.Bits, e.ASN
		}
	}
	return best, bestBits >= 0
}

// probes are the addresses a table's lookups are checked at: every
// prefix's first and last address and their neighbours, and both ends of
// the space.
func probes(entries []Entry) []netx.Addr {
	out := []netx.Addr{0, ^netx.Addr(0)}
	for _, e := range entries {
		first := e.Prefix.First()
		last := first | ^e.Prefix.Mask()
		out = append(out, first, first-1, last, last+1)
	}
	return out
}

func writeBuilder(t *testing.T, b *Builder) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteEntries(&buf, b.entries, b.orgs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// manyDuplicates announces 40 prefixes, each twice with different origins,
// in an order a non-stable sort reorders.
func manyDuplicates() string {
	var sb strings.Builder
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&sb, "10.%d.0.0\t16\t%d\n", i%20, 100+i)
	}
	return sb.String()
}

// FuzzReadEntries: every input is refused with an error or parses without
// panicking; a parsed table is a fixed point of write → read → write (the
// re-read refuses nothing and keeps every org record as it was), and its
// Lookup agrees with a brute-force longest-prefix scan over the parsed
// entries, before and after the round trip.
func FuzzReadEntries(f *testing.F) {
	for _, seed := range []string{
		"0.0.0.0\t0\t42\n",                     // a default route
		"8.8.8.8\t32\t15169\n8.8.8.0\t24\t1\n", // a /32 inside a /24
		"192.0.2.0\t24\t1\n192.0.2.0\t24\t2\n", // a duplicate announcement: the last wins
		"# org\t64500\tACME\tHoldings\tNL\n",   // an org name holding a tab
		"# org\t15169\tGoogle\t\n",             // an org without a country
		"10.0.0.0\t8\t100\n# org\t100\t Transit A \tNL\r\n# a comment\n\n",
		"10.1.2.3\t8\t7\n",  // host bits set: masked on read
		"10.0.0.0\t33\t7\n", // refused
		manyDuplicates(),
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		b, err := ReadEntries(bytes.NewReader(in))
		if err != nil {
			return
		}
		tbl := b.Build()
		if tbl.Len() != len(b.entries) {
			t.Fatalf("Len %d for %d entries", tbl.Len(), len(b.entries))
		}
		first := writeBuilder(t, b)
		again, err := ReadEntries(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("re-reading the written table: %v\n%q", err, first)
		}
		if second := writeBuilder(t, again); !bytes.Equal(first, second) {
			t.Fatalf("write → read → write moved bytes:\n%q\n%q", first, second)
		}
		if !reflect.DeepEqual(again.orgs, b.orgs) {
			t.Fatalf("org records changed in the round trip: %q → %q", b.orgs, again.orgs)
		}
		reread := again.Build()
		for _, a := range probes(b.entries) {
			asn, ok := tbl.Lookup(a)
			if wantASN, wantOK := lookupLinear(b.entries, a); asn != wantASN || ok != wantOK {
				t.Fatalf("Lookup(%v) = %v, %v; linear scan %v, %v", a, asn, ok, wantASN, wantOK)
			}
			if asn2, ok2 := reread.Lookup(a); asn2 != asn || ok2 != ok {
				t.Fatalf("Lookup(%v) = %v, %v after the round trip, %v, %v before", a, asn2, ok2, asn, ok)
			}
		}
	})
}

// TestOrgRoundTrip: an org record written by WriteEntries reads back as it
// was — a name holding a tab or padded with spaces, and an empty country
// (which the reader used to refuse once its trailing tab was trimmed).
func TestOrgRoundTrip(t *testing.T) {
	orgs := map[ASN]Org{
		1: {Name: "ACME\tHoldings", Country: "NL"},
		2: {Name: "Google", Country: ""},
		3: {Name: " Transit A ", Country: "DE"},
		4: {Name: "", Country: ""},
	}
	var buf bytes.Buffer
	if err := WriteEntries(&buf, nil, orgs); err != nil {
		t.Fatal(err)
	}
	b, err := ReadEntries(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.orgs, orgs) {
		t.Errorf("orgs after the round trip %q, want %q", b.orgs, orgs)
	}
}
