package dnswire

import (
	"testing"

	"dnsddos/internal/netx"
)

func benchMessage() *Message {
	return &Message{
		Header: Header{ID: 7, Response: true, Authoritative: true},
		Questions: []Question{
			{Name: "registered-domain.example.nl", Type: TypeNS, Class: ClassIN},
		},
		Answers: []RR{
			{Name: "registered-domain.example.nl", Type: TypeNS, Class: ClassIN, TTL: 300, NS: "ns1.provider-dns.net"},
			{Name: "registered-domain.example.nl", Type: TypeNS, Class: ClassIN, TTL: 300, NS: "ns2.provider-dns.net"},
			{Name: "registered-domain.example.nl", Type: TypeNS, Class: ClassIN, TTL: 300, NS: "ns3.provider-dns.net"},
		},
		Additional: []RR{
			{Name: "ns1.provider-dns.net", Type: TypeA, Class: ClassIN, TTL: 300, A: netx.MustParseAddr("192.0.2.1")},
			{Name: "ns2.provider-dns.net", Type: TypeA, Class: ClassIN, TTL: 300, A: netx.MustParseAddr("192.0.2.2")},
			{Name: "ns3.provider-dns.net", Type: TypeA, Class: ClassIN, TTL: 300, A: netx.MustParseAddr("192.0.2.3")},
		},
	}
}

func BenchmarkEncodeNSResponse(b *testing.B) {
	m := benchMessage()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeNSResponse(b *testing.B) {
	wire, err := Encode(benchMessage())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendEncodeNSResponse(b *testing.B) {
	m := benchMessage()
	buf := make([]byte, 0, 512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := AppendEncode(buf, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeIntoNSResponse(b *testing.B) {
	wire, err := Encode(benchMessage())
	if err != nil {
		b.Fatal(err)
	}
	var m Message
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := DecodeInto(&m, wire); err != nil {
			b.Fatal(err)
		}
	}
}
