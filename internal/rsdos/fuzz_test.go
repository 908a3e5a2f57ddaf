package rsdos

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzReadFeed holds the feed parser to "error, never panic" on bytes we
// did not write, and a feed that parses to a fixed point: written out and
// read back it is the same feed, and writes the same bytes again.
func FuzzReadFeed(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteFeed(&seed, Infer(DefaultConfig(), tieFeed(1, 300))); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte("id,victim,start,end,proto,first_port,unique_ports,total_packets,peak_ppm,max_slash16,unique_dsts\n"))
	f.Add([]byte("h\n1,192.0.2.1,2020-11-01T00:00:00Z,2020-11-01T00:05:00Z,6,53,1,100,20,50,99\n"))
	f.Add([]byte("h,h,h,h,h,h,h,h,h,h,h\n-1,255.255.255.255,0001-01-01T00:00:00Z,9999-12-31T23:59:59Z,300,70000,-1,-9,NaN,-3,1e3\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		attacks, err := ReadFeed(bytes.NewReader(data))
		if err != nil {
			return
		}
		var once bytes.Buffer
		if err := WriteFeed(&once, attacks); err != nil {
			t.Fatalf("writing a feed that parsed: %v", err)
		}
		again, err := ReadFeed(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("re-reading a written feed: %v\n%s", err, once.Bytes())
		}
		var twice bytes.Buffer
		if err := WriteFeed(&twice, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("a written feed does not re-encode to itself:\n%s\nthen\n%s", once.Bytes(), twice.Bytes())
		}
		// bytes, not DeepEqual, decide above: NaN is a peak rate the parser
		// accepts and NaN != NaN. Everything else must match by value too.
		for i := range attacks {
			if attacks[i].PeakPPM != attacks[i].PeakPPM {
				return
			}
		}
		if !reflect.DeepEqual(attacks, again) {
			t.Fatalf("a written feed reads back different:\n got %+v\nwant %+v", again, attacks)
		}
	})
}
