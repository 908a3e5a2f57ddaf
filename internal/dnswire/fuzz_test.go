package dnswire

import (
	"bytes"
	"testing"

	"dnsddos/internal/netx"
)

// FuzzDecode exercises the wire decoder with arbitrary bytes: it must never
// panic, and whatever it accepts must re-encode and decode to an equivalent
// message (for the record types the encoder supports).
func FuzzDecode(f *testing.F) {
	// seed corpus: real encodings
	q := NewQuery(7, "example.nl", TypeNS)
	if wire, err := Encode(q); err == nil {
		f.Add(wire)
	}
	resp := &Message{
		Header:    Header{ID: 9, Response: true, Authoritative: true},
		Questions: []Question{{Name: "a.example", Type: TypeNS, Class: ClassIN}},
		Answers: []RR{
			{Name: "a.example", Type: TypeNS, Class: ClassIN, TTL: 60, NS: "ns1.p.example"},
			{Name: "ns1.p.example", Type: TypeA, Class: ClassIN, TTL: 60, A: netx.MustParseAddr("192.0.2.1")},
		},
	}
	if wire, err := Encode(resp); err == nil {
		f.Add(wire)
	}
	f.Add([]byte{})
	f.Add([]byte{0, 1, 0, 0, 0, 1})
	f.Add(bytes.Repeat([]byte{0xc0}, 64)) // pointer storms

	// EDNS seeds. An OPT pseudo-RR with zero-length RDATA is the common
	// case on the wire (root owner, type 41, class = payload size,
	// RDLENGTH 0) — exactly what AttachEDNS emits:
	eq := NewQuery(3, "edns.example", TypeNS)
	eq.AttachEDNS(EDNS{UDPPayload: 4096, DO: true}) // >512 advertisement
	ewire, err := Encode(eq)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ewire)
	// duplicate OPT: RFC 6891 allows at most one, but attackers send what
	// they like — append a second handcrafted zero-RDATA OPT (root name,
	// type 41, class 512, TTL 0, RDLEN 0) and bump ARCOUNT.
	opt := []byte{0, 0, 41, 2, 0, 0, 0, 0, 0, 0, 0}
	dup := append(append([]byte{}, ewire...), opt...)
	dup[11]++ // ARCOUNT (big-endian at header bytes 10–11; count stays < 255)
	f.Add(dup)
	// truncated OPT: the same record cut mid-fixed-fields
	f.Add(append(append([]byte{}, ewire...), opt[:5]...))
	// names ending in a pointer: one grown past the limit through it, one
	// pointing at the root (TestDecodeNameEndingInPointer)
	f.Add(pointerTailedOverlong())
	f.Add(pointerToRoot())
	f.Add(nonUTF8Name())

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		// structural sanity of accepted messages
		if len(m.Questions) != int(m.Header.QDCount) {
			t.Fatalf("question count mismatch: %d vs %d", len(m.Questions), m.Header.QDCount)
		}
		// names must be canonical-izable without growth beyond limits
		checkName := func(name string) {
			if len(CanonicalName(name)) > 255 {
				t.Fatalf("oversized name survived decode: %d bytes", len(name))
			}
		}
		for _, qq := range m.Questions {
			checkName(qq.Name)
		}
		for _, section := range [][]RR{m.Answers, m.Authority, m.Additional} {
			for _, rr := range section {
				checkName(rr.Name)
				checkName(rr.NS)
				if rr.SOA != nil {
					checkName(rr.SOA.MName)
					checkName(rr.SOA.RName)
				}
			}
		}
	})
}

// FuzzEncodeDecodeRoundTrip fuzzes structured inputs: any message the
// encoder accepts must round-trip.
func FuzzEncodeDecodeRoundTrip(f *testing.F) {
	f.Add(uint16(1), "example.com", uint16(TypeNS))
	f.Add(uint16(0xffff), "a.b.c.d.e", uint16(TypeA))
	f.Add(uint16(0), "", uint16(TypeTXT))
	f.Add(uint16(5), overlongName, uint16(TypeNS)) // legal labels, illegal name
	f.Add(uint16(0), "0..", uint16(TypeA))         // canonicalised twice on the way out
	f.Fuzz(func(t *testing.T, id uint16, name string, qtype uint16) {
		msg := NewQuery(id, name, Type(qtype))
		wire, err := Encode(msg)
		if err != nil {
			return // encoder rejected the name; fine
		}
		got, err := Decode(wire)
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if got.Header.ID != id {
			t.Fatalf("ID changed: %d → %d", id, got.Header.ID)
		}
		// NewQuery canonicalises the name and putName does so again, each
		// stripping one trailing dot: "0.." goes out, and comes back, as "0"
		want := CanonicalName(CanonicalName(name))
		if len(got.Questions) != 1 || got.Questions[0].Name != want {
			t.Fatalf("question changed: %q → %q", want, got.Questions[0].Name)
		}
	})
}

// FuzzResponseRoundTrip fuzzes the responses the authoritative server's
// reflex paths emit — truncated referrals, SERVFAIL sheds, RRL slips —
// including the EDNS echo: header flags, the rcode, and the OPT record
// must all survive Encode → Decode unchanged.
func FuzzResponseRoundTrip(f *testing.F) {
	f.Add(uint16(1), "example.com", uint16(1232), true, uint8(0), false)
	f.Add(uint16(77), "shed.example", uint16(0), false, uint8(2), true) // SERVFAIL shed
	f.Add(uint16(0xffff), "slip.example.nl", uint16(65535), true, uint8(5), true)
	f.Fuzz(func(t *testing.T, id uint16, name string, payload uint16, tc bool, rcode uint8, do bool) {
		rcode &= 0x0f // the header field is four bits wide
		msg := &Message{
			Header: Header{
				ID:            id,
				Response:      true,
				Authoritative: true,
				Truncated:     tc,
				RCode:         RCode(rcode),
			},
			Questions: []Question{{Name: CanonicalName(name), Type: TypeNS, Class: ClassIN}},
		}
		msg.AttachEDNS(EDNS{UDPPayload: payload, DO: do})
		wire, err := Encode(msg)
		if err != nil {
			return // encoder rejected the name; fine
		}
		got, err := Decode(wire)
		if err != nil {
			t.Fatalf("decode of own encoding failed: %v", err)
		}
		if got.Header.ID != id || !got.Header.Response || !got.Header.Authoritative {
			t.Fatalf("header identity changed: %+v", got.Header)
		}
		if got.Header.Truncated != tc {
			t.Fatalf("TC bit changed: %v → %v", tc, got.Header.Truncated)
		}
		if got.Header.RCode != RCode(rcode) {
			t.Fatalf("rcode changed: %d → %d", rcode, got.Header.RCode)
		}
		e, ok := got.EDNS()
		if !ok {
			t.Fatal("EDNS OPT record lost in round trip")
		}
		if e.UDPPayload != payload || e.DO != do {
			t.Fatalf("EDNS changed: payload %d→%d DO %v→%v", payload, e.UDPPayload, do, e.DO)
		}
	})
}
