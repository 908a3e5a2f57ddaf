package packet

import "testing"

func TestProtocolString(t *testing.T) {
	cases := map[Protocol]string{ProtoICMP: "ICMP", ProtoTCP: "TCP", ProtoUDP: "UDP", 99: "proto(99)"}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", p, got, want)
		}
	}
}

func TestTCPFlagsString(t *testing.T) {
	if got := (FlagSYN | FlagACK).String(); got != "SYN|ACK" {
		t.Errorf("flags = %q", got)
	}
	if got := TCPFlags(0).String(); got != "0" {
		t.Errorf("zero flags = %q", got)
	}
	if !(FlagSYN | FlagACK).Has(FlagSYN) {
		t.Error("Has(SYN)")
	}
	if (FlagSYN).Has(FlagSYN | FlagACK) {
		t.Error("Has should require all bits")
	}
}
