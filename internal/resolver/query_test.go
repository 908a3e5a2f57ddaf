package resolver

import (
	"bytes"
	"testing"

	"dnsddos/internal/dnswire"
)

// TestAppendQueryMatchesNewQuery: the query the clients encode from the
// stack is byte for byte the one dnswire.NewQuery and AttachEDNS build,
// with and without an EDNS payload, for a name in any case.
func TestAppendQueryMatchesNewQuery(t *testing.T) {
	for _, name := range []string{"victim.example", "Victim.EXAMPLE."} {
		for _, payload := range []uint16{0, 1232} {
			q := dnswire.NewQuery(0x1234, name, dnswire.TypeNS)
			if payload > 0 {
				q.AttachEDNS(dnswire.EDNS{UDPPayload: payload})
			}
			want, err := dnswire.Encode(q)
			if err != nil {
				t.Fatal(err)
			}
			got, err := appendQuery(nil, 0x1234, name, dnswire.TypeNS, payload)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s with payload %d: %x, want %x", name, payload, got, want)
			}
		}
	}
}
