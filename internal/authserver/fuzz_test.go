package authserver

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadZoneFile holds the master-file parser behind cmd/serve -zone to
// "error, never panic", and a zone that parses to a fixed point: written
// out it reads back, and writes the same bytes again.
func FuzzReadZoneFile(f *testing.F) {
	for _, seed := range []string{
		"$TTL 600\n$ORIGIN example.nl.\n@ IN NS ns1.dns.example.\n@ 3600 IN NS ns2.dns.example. ; secondary\nwww IN A 203.0.113.80\nns1.dns.example. 300 IN A 192.0.2.1\nsub NS ns1.dns.example.\n",
		"$ORIGIN example.\n@ IN SOA ns1\n@ IN TXT hello\n@ IN NS ns1.example.\n",
		"www IN A 203.0.113.80\n",
		"$TTL\n",
		"$TTL 99999999999\n",
		"a.example. IN A not-an-ip\n",
		"a.example. IN WKS something\n",
		"a.example. IN\n",
		". IN NS .\n@. in ns A.EXAMPLE.\n",
		"$origin .\n@ 0 IN A 0.0.0.0\n",
		"a.example.\tIN\tA\t255.255.255.255\r\n",
		strings.Repeat("x", 70000) + ". IN NS y.\n",
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		z, err := ReadZoneFile(bytes.NewReader(data))
		if err != nil {
			return
		}
		var once bytes.Buffer
		if err := WriteZoneFile(&once, z); err != nil {
			t.Fatalf("writing a zone that parsed: %v", err)
		}
		again, err := ReadZoneFile(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("re-reading a written zone: %v\n%s", err, once.Bytes())
		}
		var twice bytes.Buffer
		if err := WriteZoneFile(&twice, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("a written zone does not re-encode to itself:\n%q\nthen\n%q", once.Bytes(), twice.Bytes())
		}
	})
}
