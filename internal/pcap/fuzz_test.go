package pcap

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"dnsddos/internal/packet"
)

// FuzzReader holds the capture reader — what `telescope -in` runs over
// files this program did not write — to "error, never panic": NewReader,
// then ReadRecord until an error, with every record's bytes handed to the
// packet decoder the inference runs next.
func FuzzReader(f *testing.F) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		f.Fatal(err)
	}
	ip := []byte{0x45, 0, 0, 20, 0, 1, 0, 0, 64, 1, 0, 0, 192, 0, 2, 1, 198, 51, 100, 7}
	for i, data := range [][]byte{ip, {}, bytes.Repeat([]byte{0xaa}, 60)} {
		if err := w.WriteRecord(Record{Time: time.Unix(1606780800+int64(i), 0), Data: data, OrigLen: 1500}); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Fatal(err)
	}
	capture := buf.Bytes()
	f.Add(capture)
	f.Add(capture[:20])              // truncated file header
	f.Add(capture[:24+16+len(ip)-3]) // truncated record body
	oversize := bytes.Clone(capture[:24+16])
	binary.LittleEndian.PutUint32(oversize[24+8:], MaxSnapLen+1) // caplen past the snap length
	f.Add(oversize)

	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := NewReader(bytes.NewReader(b))
		if err != nil {
			return
		}
		for {
			rec, err := r.ReadRecord()
			if err != nil {
				return
			}
			_, _ = packet.Decode(rec.Data)
		}
	})
}
