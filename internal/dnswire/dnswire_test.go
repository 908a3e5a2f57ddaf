package dnswire

import (
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"

	"dnsddos/internal/netx"
)

func TestCanonicalName(t *testing.T) {
	cases := map[string]string{
		"Example.COM.": "example.com",
		"example.com":  "example.com",
		"":             "",
		".":            "",
		"MIL.RU":       "mil.ru",
		// ASCII-only folding (RFC 4343): other bytes pass through, valid
		// UTF-8 or not
		"\xff.NL":   "\xff.nl",
		"É.Example": "É.example",
	}
	for in, want := range cases {
		if got := CanonicalName(in); got != want {
			t.Errorf("CanonicalName(%q) = %q, want %q", in, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { CanonicalName("ns1.example.nl.") }); n != 0 {
		t.Errorf("CanonicalName of a lower-case name allocates %v times", n)
	}
}

func TestQueryRoundTrip(t *testing.T) {
	q := NewQuery(0xbeef, "example.nl", TypeNS)
	wire, err := Encode(q)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if m.Header.ID != 0xbeef || m.Header.Response {
		t.Errorf("header = %+v", m.Header)
	}
	if len(m.Questions) != 1 {
		t.Fatalf("questions = %d", len(m.Questions))
	}
	if m.Questions[0].Name != "example.nl" || m.Questions[0].Type != TypeNS || m.Questions[0].Class != ClassIN {
		t.Errorf("question = %+v", m.Questions[0])
	}
}

func TestResponseWithAllRRTypes(t *testing.T) {
	msg := &Message{
		Header: Header{ID: 7, Response: true, Authoritative: true, RCode: RCodeNoError},
		Questions: []Question{
			{Name: "example.com", Type: TypeNS, Class: ClassIN},
		},
		Answers: []RR{
			{Name: "example.com", Type: TypeNS, Class: ClassIN, TTL: 300, NS: "ns1.example.net"},
			{Name: "example.com", Type: TypeNS, Class: ClassIN, TTL: 300, NS: "ns2.example.net"},
		},
		Authority: []RR{
			{Name: "example.com", Type: TypeSOA, Class: ClassIN, TTL: 600, SOA: &SOAData{
				MName: "ns1.example.net", RName: "hostmaster.example.com",
				Serial: 2022033101, Refresh: 3600, Retry: 600, Expire: 86400, Minimum: 300,
			}},
		},
		Additional: []RR{
			{Name: "ns1.example.net", Type: TypeA, Class: ClassIN, TTL: 300, A: netx.MustParseAddr("192.0.2.53")},
			{Name: "info.example.com", Type: TypeTXT, Class: ClassIN, TTL: 60, TXT: []string{"v=probe", "vantage=nl"}},
		},
	}
	wire, err := Encode(msg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Header.Response || !m.Header.Authoritative {
		t.Errorf("flags lost: %+v", m.Header)
	}
	if len(m.Answers) != 2 || m.Answers[0].NS != "ns1.example.net" || m.Answers[1].NS != "ns2.example.net" {
		t.Errorf("answers = %+v", m.Answers)
	}
	soa := m.Authority[0].SOA
	if soa == nil || soa.Serial != 2022033101 || soa.MName != "ns1.example.net" {
		t.Errorf("soa = %+v", soa)
	}
	if m.Additional[0].A != netx.MustParseAddr("192.0.2.53") {
		t.Errorf("glue = %v", m.Additional[0].A)
	}
	if len(m.Additional[1].TXT) != 2 || m.Additional[1].TXT[0] != "v=probe" {
		t.Errorf("txt = %v", m.Additional[1].TXT)
	}
}

func TestNameCompressionShrinksMessage(t *testing.T) {
	mk := func(names int) int {
		msg := &Message{Header: Header{ID: 1, Response: true}}
		msg.Questions = []Question{{Name: "a-long-zone-name.example.com", Type: TypeNS, Class: ClassIN}}
		for i := 0; i < names; i++ {
			msg.Answers = append(msg.Answers, RR{
				Name: "a-long-zone-name.example.com", Type: TypeNS, Class: ClassIN, TTL: 60,
				NS: "ns.a-long-zone-name.example.com",
			})
		}
		wire, err := Encode(msg)
		if err != nil {
			t.Fatal(err)
		}
		return len(wire)
	}
	one, five := mk(1), mk(5)
	// with compression, each extra RR costs far less than a full name
	if five-one >= 4*len("a-long-zone-name.example.com") {
		t.Errorf("compression ineffective: 1 RR = %dB, 5 RRs = %dB", one, five)
	}
}

func TestDecodeRejectsBadInput(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},
		make([]byte, 11),
	}
	for _, in := range cases {
		if _, err := Decode(in); err == nil {
			t.Errorf("Decode(% x) should fail", in)
		}
	}
	// header claiming one question but no body
	hdr := make([]byte, 12)
	hdr[5] = 1 // QDCount = 1
	if _, err := Decode(hdr); err == nil {
		t.Error("truncated question should fail")
	}
}

func TestDecodeRejectsPointerLoop(t *testing.T) {
	// craft a message whose question name is a self-pointing pointer
	b := make([]byte, 12)
	b[5] = 1 // one question
	// pointer to itself at offset 12
	b = append(b, 0xc0, 12)
	b = append(b, 0, byte(TypeNS), 0, byte(ClassIN))
	if _, err := Decode(b); err == nil {
		t.Error("self-referencing compression pointer should fail")
	}
}

func TestDecodeRejectsForwardPointer(t *testing.T) {
	b := make([]byte, 12)
	b[5] = 1
	b = append(b, 0xc0, 40) // points past itself
	b = append(b, 0, byte(TypeNS), 0, byte(ClassIN))
	if _, err := Decode(b); err == nil {
		t.Error("forward compression pointer should fail")
	}
}

func TestEncodeRejectsBadLabels(t *testing.T) {
	long := strings.Repeat("x", 64)
	if _, err := Encode(NewQuery(1, long+".example", TypeA)); err == nil {
		t.Error("64-byte label should fail")
	}
	if _, err := Encode(&Message{
		Questions: []Question{{Name: "a..b", Type: TypeA, Class: ClassIN}},
	}); err == nil {
		t.Error("empty label should fail")
	}
}

func TestEncodeRejectsUnknownRRType(t *testing.T) {
	msg := &Message{Answers: []RR{{Name: "x.example", Type: Type(250), Class: ClassIN}}}
	if _, err := Encode(msg); err == nil {
		t.Error("unknown RR type should fail to encode")
	}
}

func TestEncodeRejectsSOAWithoutData(t *testing.T) {
	msg := &Message{Answers: []RR{{Name: "x.example", Type: TypeSOA, Class: ClassIN}}}
	if _, err := Encode(msg); err == nil {
		t.Error("SOA without SOAData should fail")
	}
}

func TestRCodeTypeStrings(t *testing.T) {
	if RCodeNXDomain.String() != "NXDOMAIN" || RCodeServFail.String() != "SERVFAIL" {
		t.Error("rcode strings")
	}
	if TypeNS.String() != "NS" || Type(999).String() != "TYPE999" {
		t.Error("type strings")
	}
}

// randomName builds a random valid DNS name.
func randomName(rng *rand.Rand) string {
	labels := 1 + rng.IntN(4)
	parts := make([]string, labels)
	for i := range parts {
		n := 1 + rng.IntN(12)
		b := make([]byte, n)
		for j := range b {
			b[j] = byte('a' + rng.IntN(26))
		}
		parts[i] = string(b)
	}
	return strings.Join(parts, ".")
}

func TestMessageRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0xd2))
		msg := &Message{
			Header: Header{
				ID:       uint16(rng.Uint32()),
				Response: rng.IntN(2) == 0,
				RCode:    RCode(rng.IntN(6)),
			},
			Questions: []Question{{Name: randomName(rng), Type: TypeNS, Class: ClassIN}},
		}
		zone := randomName(rng)
		for i := 0; i < rng.IntN(5); i++ {
			switch rng.IntN(3) {
			case 0:
				msg.Answers = append(msg.Answers, RR{Name: zone, Type: TypeNS, Class: ClassIN, TTL: rng.Uint32N(1e6), NS: randomName(rng)})
			case 1:
				msg.Answers = append(msg.Answers, RR{Name: randomName(rng), Type: TypeA, Class: ClassIN, TTL: 1, A: netx.Addr(rng.Uint32())})
			default:
				msg.Answers = append(msg.Answers, RR{Name: zone, Type: TypeTXT, Class: ClassIN, TTL: 2, TXT: []string{randomName(rng)}})
			}
		}
		wire, err := Encode(msg)
		if err != nil {
			return false
		}
		got, err := Decode(wire)
		if err != nil {
			return false
		}
		if got.Header.ID != msg.Header.ID || got.Header.RCode != msg.Header.RCode {
			return false
		}
		if len(got.Answers) != len(msg.Answers) {
			return false
		}
		for i, rr := range msg.Answers {
			g := got.Answers[i]
			if g.Type != rr.Type || g.TTL != rr.TTL || CanonicalName(g.Name) != CanonicalName(rr.Name) {
				return false
			}
			switch rr.Type {
			case TypeNS:
				if CanonicalName(g.NS) != CanonicalName(rr.NS) {
					return false
				}
			case TypeA:
				if g.A != rr.A {
					return false
				}
			case TypeTXT:
				if len(g.TXT) != len(rr.TXT) || g.TXT[0] != rr.TXT[0] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestDecodeFuzzResilience feeds random bytes: the decoder must never panic
// and either error out or return a structurally valid message.
func TestDecodeFuzzResilience(t *testing.T) {
	rng := rand.New(rand.NewPCG(0xf0, 0x0d))
	for i := 0; i < 5000; i++ {
		n := rng.IntN(64)
		b := make([]byte, n)
		for j := range b {
			b[j] = byte(rng.Uint32())
		}
		m, err := Decode(b)
		if err == nil && m == nil {
			t.Fatal("nil message with nil error")
		}
	}
}
