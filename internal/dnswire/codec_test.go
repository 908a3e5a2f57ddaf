package dnswire

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"dnsddos/internal/netx"
)

// overlongName is five 63-octet labels: every label is legal, the name's
// 321 octets on the wire are not.
var overlongName = strings.TrimSuffix(strings.Repeat(strings.Repeat("x", 63)+".", 5), ".")

// TestEncodeRefusesOverlongName: the encoder used to check labels only and
// emitted this name, which its own decoder then refused.
func TestEncodeRefusesOverlongName(t *testing.T) {
	dst := []byte{0xaa, 0xbb}
	out, err := AppendEncode(dst, NewQuery(1, overlongName, TypeNS))
	if !errors.Is(err, ErrBadName) {
		t.Fatalf("AppendEncode of a %d-byte name: err = %v, want ErrBadName", len(overlongName), err)
	}
	if !bytes.Equal(out, dst) {
		t.Errorf("a refused message left % x behind dst", out)
	}
	// 255 octets on the wire is the longest legal name
	longest := overlongName[:253]
	wire, err := Encode(NewQuery(1, longest, TypeNS))
	if err != nil {
		t.Fatalf("253-byte name: %v", err)
	}
	m, err := Decode(wire)
	if err != nil || m.Questions[0].Name != longest {
		t.Fatalf("253-byte name did not round-trip: %v", err)
	}
	if _, err := Encode(NewQuery(1, overlongName[:254], TypeNS)); !errors.Is(err, ErrBadName) {
		t.Errorf("254-byte name: err = %v, want ErrBadName", err)
	}
}

// pointerTailedOverlong is a message of two questions: a legal 243-byte
// name, then three 60-byte labels ending in a pointer to it, 426 bytes in
// all.
func pointerTailedOverlong() []byte {
	b := make([]byte, 12)
	b[5] = 2 // QDCOUNT
	label := append([]byte{60}, bytes.Repeat([]byte{'x'}, 60)...)
	b = append(b, bytes.Repeat(label, 4)...)
	b = append(b, 0, 0, byte(TypeNS), 0, byte(ClassIN))
	b = append(b, bytes.Repeat(label, 3)...)
	return append(b, 0xc0, 12, 0, byte(TypeNS), 0, byte(ClassIN))
}

// nonUTF8Name is a message of one question whose 243-byte name is four
// 60-byte labels of 0xff: a Unicode-aware lower-casing rewrites each byte
// as the three of U+FFFD and takes the name past 255.
func nonUTF8Name() []byte {
	b := make([]byte, 12)
	b[5] = 1
	label := append([]byte{60}, bytes.Repeat([]byte{0xff}, 60)...)
	b = append(b, bytes.Repeat(label, 4)...)
	return append(b, 0, 0, byte(TypeNS), 0, byte(ClassIN))
}

// pointerToRoot is a message of two questions: the root, then "a" ending
// in a pointer to it.
func pointerToRoot() []byte {
	b := make([]byte, 12)
	b[5] = 2
	b = append(b, 0, 0, byte(TypeNS), 0, byte(ClassIN))
	return append(b, 1, 'a', 0xc0, 12, 0, byte(TypeNS), 0, byte(ClassIN))
}

// TestDecodeNameEndingInPointer: the length limit used to be checked on
// the labels in front of a pointer only, and the separator written
// whether or not anything followed it.
func TestDecodeNameEndingInPointer(t *testing.T) {
	if _, err := Decode(pointerTailedOverlong()); !errors.Is(err, ErrBadName) {
		t.Errorf("a 426-byte name, 182 bytes of labels and a pointer to 243 more: err = %v, want ErrBadName", err)
	}
	m, err := Decode(pointerToRoot())
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Questions[1].Name; got != "a" {
		t.Errorf(`"a" + pointer to the root decoded as %q, want "a"`, got)
	}
}

// TestDecodeHostileCountsAllocateLittle pins the cap on what the header
// counts may pre-size: a section gets room for what the bytes present
// could hold, not for what the header claims.
func TestDecodeHostileCountsAllocateLittle(t *testing.T) {
	perCall := func(wire []byte) uint64 {
		const calls = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			if _, err := Decode(wire); !errors.Is(err, ErrShortMessage) {
				t.Fatalf("err = %v, want ErrShortMessage", err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / calls
	}
	header := bytes.Repeat([]byte{0xff}, 12)
	header[2] = 0 // a query, opcode 0
	if got := perCall(header); got >= 1<<10 {
		t.Errorf("a bare header claiming 4 x 65535 entries cost %d bytes, want < 1 kB", got)
	}
	wire, err := Encode(benchMessage())
	if err != nil {
		t.Fatal(err)
	}
	wire[10], wire[11] = 0xff, 0xff // ARCOUNT
	if got := perCall(wire); got >= 4<<10 {
		t.Errorf("a %d-byte response claiming 65535 additional records cost %d bytes, want < 4 kB", len(wire), got)
	}
}

// TestCodecAllocs guards what the serving path relies on: encoding into a
// buffer with room allocates nothing, and a decode allocates the message,
// one slice of questions, one slab of records and one arena of names.
func TestCodecAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds Puts under the race detector; exact counts do not hold")
	}
	m := benchMessage()
	wire, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 512)
	var warmed Message
	if err := DecodeInto(&warmed, wire); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		max  float64
		call func()
	}{
		{"AppendEncode into a sized buffer", 0, func() { AppendEncode(buf, m) }},
		{"Encode", 1, func() { Encode(m) }},
		{"Decode", 5, func() { Decode(wire) }},
		{"DecodeInto a warmed Message", 1, func() { DecodeInto(&warmed, wire) }},
	} {
		if got := testing.AllocsPerRun(200, c.call); got > c.max {
			t.Errorf("%s: %.1f allocations, want at most %.0f", c.name, got, c.max)
		}
	}
}

// sameMessage reports whether two decoded messages are equal, taking a
// section without entries as equal to a nil one: a reused Message keeps
// its sections' room, a fresh one never had any.
func sameMessage(a, b *Message) bool {
	norm := func(m *Message) Message {
		c := *m
		if len(c.Questions) == 0 {
			c.Questions = nil
		}
		for _, s := range []*[]RR{&c.Answers, &c.Authority, &c.Additional} {
			if len(*s) == 0 {
				*s = nil
			}
		}
		return c
	}
	return reflect.DeepEqual(norm(a), norm(b))
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkEncode holds AppendEncode to the reference byte for byte, behind
// nothing, behind a TCP length's worth of prefix, and behind a prefix long
// enough that buffer offsets and message offsets differ in their high
// bits.
func checkEncode(t *testing.T, m *Message) []byte {
	t.Helper()
	want, wantErr := encodeReference(m)
	for _, prefix := range []int{0, 2, 700} {
		dst := bytes.Repeat([]byte{0xa5}, prefix)
		out, err := AppendEncode(dst, m)
		if errText(err) != errText(wantErr) {
			t.Fatalf("prefix %d: AppendEncode err = %v, reference err = %v", prefix, err, wantErr)
		}
		if !bytes.Equal(out[:prefix], dst) {
			t.Fatalf("prefix %d: AppendEncode wrote into the prefix", prefix)
		}
		if !bytes.Equal(out[prefix:], want) {
			t.Fatalf("prefix %d: wire differs from the reference\n got % x\nwant % x", prefix, out[prefix:], want)
		}
	}
	return want
}

// checkDecode holds Decode to the reference (same message or same error),
// and a Message that already held another message, before and after, to a
// fresh decode.
func checkDecode(t *testing.T, wire []byte) *Message {
	t.Helper()
	want, wantErr := decodeReference(wire)
	got, err := Decode(wire)
	if errText(err) != errText(wantErr) {
		t.Fatalf("Decode err = %v, reference err = %v\nwire % x", err, wantErr, wire)
	}
	if err != nil {
		return nil
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Decode differs from the reference\n got %+v\nwant %+v", got, want)
	}
	var reused Message
	for _, w := range [][]byte{fullWire, wire, fullWire, wire} {
		if err := DecodeInto(&reused, w); err != nil {
			t.Fatalf("DecodeInto a used Message: %v", err)
		}
		fresh, _ := decodeReference(w)
		if !sameMessage(&reused, fresh) {
			t.Fatalf("reused Message differs from a fresh decode\n got %+v\nwant %+v", reused, *fresh)
		}
	}
	return want
}

// fullMessage has something in every section and one record of every
// type, with names that share suffixes.
func fullMessage() *Message {
	m := &Message{
		Header:    Header{ID: 0x1234, Response: true, Authoritative: true, RecursionDesired: true},
		Questions: []Question{{Name: "www.shared.example.nl", Type: TypeNS, Class: ClassIN}},
		Answers: []RR{
			{Name: "www.shared.example.nl", Type: TypeNS, Class: ClassIN, TTL: 300, NS: "ns1.provider.example.net"},
			{Name: "shared.example.nl", Type: TypeNS, Class: ClassIN, TTL: 300, NS: "ns2.provider.example.net"},
			{Name: "example.nl", Type: TypeTXT, Class: ClassIN, TTL: 5, TXT: []string{"v=probe", "", strings.Repeat("t", 255)}},
		},
		Authority: []RR{{Name: "example.nl", Type: TypeSOA, Class: ClassIN, TTL: 60, SOA: &SOAData{
			MName: "ns1.provider.example.net", RName: "hostmaster.example.nl",
			Serial: 2022033101, Refresh: 3600, Retry: 600, Expire: 86400, Minimum: 300,
		}}},
		Additional: []RR{
			{Name: "ns1.provider.example.net", Type: TypeA, Class: ClassIN, TTL: 300, A: netx.MustParseAddr("192.0.2.1")},
			{Name: "ns2.provider.example.net", Type: TypeA, Class: ClassIN, TTL: 300, A: netx.MustParseAddr("192.0.2.2")},
		},
	}
	m.AttachEDNS(EDNS{UDPPayload: 1232, DO: true})
	return m
}

var fullWire = mustReference(fullMessage())

func mustReference(m *Message) []byte {
	wire, err := encodeReference(m)
	if err != nil {
		panic(err)
	}
	return wire
}

// pastPointerRange is long enough that names first met beyond offset
// 0x3fff, which a 14-bit pointer cannot reach, have to be written out
// again each time while earlier ones still compress.
func pastPointerRange() *Message {
	m := &Message{Header: Header{ID: 9, Response: true}}
	for i := 0; i < 700; i++ {
		m.Answers = append(m.Answers, RR{
			Name: fmt.Sprintf("host%d.early.example", i), Type: TypeNS, Class: ClassIN, TTL: 1,
			NS: fmt.Sprintf("ns%d.early-provider.example", i%7),
		})
	}
	for i := 0; i < 4; i++ {
		m.Additional = append(m.Additional, RR{
			Name: fmt.Sprintf("glue%d.late.test", i%2), Type: TypeNS, Class: ClassIN, TTL: 1, NS: "ns0.early-provider.example",
		})
	}
	return m
}

// FuzzCodecDifferential compares the codec with the reference it replaced.
// The input is raw bytes for the decoders; what they decode to is a
// structured message for the encoders, with every name upper-cased and/or
// given a trailing dot as mangle says.
func FuzzCodecDifferential(f *testing.F) {
	for _, m := range []*Message{
		fullMessage(),
		benchMessage(),
		pastPointerRange(),
		{}, // nothing but a header
		NewQuery(7, "example.nl", TypeNS),
		{Header: Header{Response: true, RCode: RCodeNXDomain}, Authority: fullMessage().Authority},
	} {
		for mangle := uint8(0); mangle < 4; mangle++ {
			f.Add(mustReference(m), mangle)
		}
	}
	f.Add(pointerTailedOverlong(), uint8(0))
	f.Add(pointerToRoot(), uint8(0))
	f.Add(bytes.Repeat([]byte{0xc0}, 64), uint8(0))
	f.Add(fullWire[:len(fullWire)-7], uint8(0))
	f.Add(bytes.Repeat([]byte{0xff}, 12), uint8(0))

	f.Fuzz(func(t *testing.T, data []byte, mangle uint8) {
		m := checkDecode(t, data)
		if m == nil {
			return
		}
		rename := func(name *string) {
			if mangle&1 != 0 {
				*name = strings.ToUpper(*name)
			}
			if mangle&2 != 0 {
				*name += "."
			}
		}
		for i := range m.Questions {
			rename(&m.Questions[i].Name)
		}
		for _, section := range [][]RR{m.Answers, m.Authority, m.Additional} {
			for i := range section {
				rr := &section[i]
				rename(&rr.Name)
				rename(&rr.NS)
				if rr.SOA != nil {
					rename(&rr.SOA.MName)
					rename(&rr.SOA.RName)
				}
			}
		}
		if wire := checkEncode(t, m); wire != nil {
			checkDecode(t, wire)
		}
	})
}

// zoneShapedResponse builds one response of the shapes authserver's
// Zone.Answer emits: NS records whose targets share provider suffixes,
// with glue; A answers; NXDOMAIN and NODATA with the SOA at the apex.
func zoneShapedResponse(rng *rand.Rand) *Message {
	tlds := []string{"nl", "com", "example.org", "co.uk"}
	apex := fmt.Sprintf("domain-%d.%s", rng.IntN(2000), tlds[rng.IntN(len(tlds))])
	name := apex
	if rng.IntN(4) == 0 {
		name = "www." + apex
	}
	m := &Message{
		Header:    Header{ID: uint16(rng.Uint32()), Response: true, Authoritative: true, RecursionDesired: rng.IntN(2) == 0},
		Questions: []Question{{Name: name, Type: TypeNS, Class: ClassIN}},
	}
	const ttl = 300
	switch shape := rng.IntN(8); {
	case shape < 5: // NS answer with glue
		provider := fmt.Sprintf("provider-%d.net", rng.IntN(20))
		for i, n := 0, 1+rng.IntN(13); i < n; i++ {
			if rng.IntN(6) == 0 {
				provider = fmt.Sprintf("provider-%d.%s", rng.IntN(20), tlds[rng.IntN(len(tlds))])
			}
			host := fmt.Sprintf("ns%d.%s", i+1, provider)
			m.Answers = append(m.Answers, RR{Name: name, Type: TypeNS, Class: ClassIN, TTL: ttl, NS: host})
			for g := rng.IntN(3); g > 0; g-- {
				m.Additional = append(m.Additional, RR{Name: host, Type: TypeA, Class: ClassIN, TTL: ttl, A: netx.Addr(rng.Uint32())})
			}
		}
	case shape == 5: // A answer
		m.Questions[0].Type = TypeA
		for n := 1 + rng.IntN(3); n > 0; n-- {
			m.Answers = append(m.Answers, RR{Name: name, Type: TypeA, Class: ClassIN, TTL: ttl, A: netx.Addr(rng.Uint32())})
		}
	default: // NODATA, or NXDOMAIN below the apex
		if shape == 7 {
			m.Header.RCode = RCodeNXDomain
			m.Questions[0].Name = "missing." + name
		}
		m.Authority = []RR{{Name: apex, Type: TypeSOA, Class: ClassIN, TTL: ttl, SOA: &SOAData{
			MName: "ns.invalid", RName: "hostmaster.invalid", Serial: 1, Refresh: 3600, Retry: 600, Expire: 86400, Minimum: ttl,
		}}}
	}
	if rng.IntN(3) == 0 {
		m.AttachEDNS(EDNS{UDPPayload: uint16(512 + rng.IntN(4096))})
	}
	return m
}

// TestReferenceZoneShapedResponses is the differential check at the
// serving path's own traffic: wire equality and decode equality over
// thousands of generated responses. It lives here because authserver
// imports this package and the reference is unexported.
func TestReferenceZoneShapedResponses(t *testing.T) {
	rng := rand.New(rand.NewPCG(20, 0x5e7e))
	for i := 0; i < 6500; i++ {
		wire := checkEncode(t, zoneShapedResponse(rng))
		if m := checkDecode(t, wire); m == nil {
			t.Fatalf("response %d did not decode", i)
		}
	}
}
