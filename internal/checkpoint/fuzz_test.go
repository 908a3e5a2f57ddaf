package checkpoint

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// restampFrame makes b's length field and CRC trailer agree with the
// payload bytes b carries, so damage to the payload reaches the gob
// decoder instead of stopping at the envelope.
func restampFrame(b []byte) []byte {
	b = bytes.Clone(b) // the engine's bytes are read-only
	payload := b[len(magic)+12 : len(b)-4]
	binary.BigEndian.PutUint64(b[len(magic)+4:], uint64(len(payload)))
	binary.BigEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(payload))
	return b
}

// FuzzDecodeFrame holds DecodeFrame to "error, never panic" on the bytes
// of a journal file — the file a sealed day is journaled through, read
// back on every resume: as they are (magic, version, length and CRC
// checks), and with length and CRC re-stamped so every mutation of the
// payload is decoded by gob into the two records the journal holds. A
// frame that decodes re-encodes to a frame that decodes to the same value.
func FuzzDecodeFrame(f *testing.F) {
	for _, v := range []any{
		&DayRef{File: "day_000027.dcol", SHA256: "9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08"},
		&Cursor{ClosedThrough: 8211, Attacks: 17, Events: 403, SinkBytes: 1 << 20, LastAttackWindow: 8209, LastAttackVictim: 0xc0000201, HaveLast: true},
	} {
		b, err := EncodeFrame(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)-5])
		f.Add(b[:len(magic)+12+4])
		f.Add(b[:len(magic)+3])
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, b []byte) {
		var ref DayRef
		var cur Cursor
		_ = DecodeFrame(b, &ref)
		if len(b) < len(magic)+12+4 {
			return
		}
		b = restampFrame(b)
		if DecodeFrame(b, &ref) == nil {
			again, err := EncodeFrame(&ref)
			var back DayRef
			if err != nil || DecodeFrame(again, &back) != nil || back != ref {
				t.Fatalf("decoded %+v does not survive a re-encode (%v): %+v", ref, err, back)
			}
		}
		if DecodeFrame(b, &cur) == nil {
			again, err := EncodeFrame(&cur)
			var back Cursor
			if err != nil || DecodeFrame(again, &back) != nil || back != cur {
				t.Fatalf("decoded %+v does not survive a re-encode (%v): %+v", cur, err, back)
			}
		}
	})
}
