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
