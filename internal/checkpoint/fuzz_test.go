package checkpoint

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"testing"

	"dnsddos/internal/clock"
)

// restampFrame makes b's length field and CRC trailer agree with the
// payload bytes b carries, so damage to the payload reaches the gob
// decoder instead of stopping at the envelope.
func restampFrame(b []byte) []byte {
	b = bytes.Clone(b) // the engine's bytes are read-only
	payload := b[headerLen : len(b)-4]
	binary.BigEndian.PutUint64(b[len(magic)+4:], uint64(len(payload)))
	binary.BigEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(payload))
	return b
}

// journalSeeds are the two records the journal holds, each whole and cut
// short at the places a torn write can stop.
func journalSeeds(f *testing.F) {
	for _, v := range []any{
		&DayRef{Day: 27, File: "day_000027.dcol", SHA256: "9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08"},
		&Cursor{ClosedThrough: 8211, Attacks: 17, Events: 403, SinkBytes: 1 << 20, LastAttackWindow: 8209, LastAttackVictim: 0xc0000201, HaveLast: true},
	} {
		b, err := EncodeFrame(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)-5])
		f.Add(b[:headerLen+4])
		f.Add(b[:len(magic)+3])
	}
	f.Add([]byte{})
	f.Add([]byte(magic))
}

// FuzzDecodeFrame holds DecodeFrame to "error, never panic" on the bytes
// of a journal file — the file a sealed day is journaled through, read
// back on every resume: as they are (magic, version, length and CRC
// checks), and with length and CRC re-stamped so every mutation of the
// payload is decoded by gob into the two records the journal holds. A
// frame that decodes re-encodes to a frame that decodes to the same value.
func FuzzDecodeFrame(f *testing.F) {
	journalSeeds(f)
	f.Fuzz(func(t *testing.T, b []byte) {
		var ref DayRef
		var cur Cursor
		_ = DecodeFrame(b, &ref)
		if len(b) < headerLen+4 {
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

// FuzzReadFrame holds the streaming reader to "error, never panic" on a
// stream of frames, laid end to end as a day log holds them: the
// fuzzed bytes, then the same bytes re-stamped, are laid after one intact
// frame and before another. Every read consumes exactly one frame, so the
// first frame always reads back, and whenever the fuzzed frame reads, the
// one behind it must read back too.
func FuzzReadFrame(f *testing.F) {
	journalSeeds(f)
	lead, err := EncodeFrame(&DayRef{File: "day_000001.dcol", SHA256: "lead"})
	if err != nil {
		f.Fatal(err)
	}
	tail, err := EncodeFrame(&Cursor{ClosedThrough: 2, Attacks: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(tail) // two intact frames in order
	f.Fuzz(func(t *testing.T, b []byte) {
		streams := [][]byte{b}
		if len(b) >= headerLen+4 {
			streams = append(streams, restampFrame(b))
		}
		for _, mid := range streams {
			r := bytes.NewReader(bytes.Join([][]byte{lead, mid, tail}, nil))
			var ref DayRef
			if err := readFrame(r, &ref); err != nil || ref.SHA256 != "lead" {
				t.Fatalf("the frame before the fuzzed bytes read as %+v, %v", ref, err)
			}
			var cur Cursor
			if readFrame(r, &cur) != nil || r.Len() != len(tail) {
				continue // refused, or not exactly one frame
			}
			if err := readFrame(r, &cur); err != nil || cur.ClosedThrough != 2 || r.Len() != 0 {
				t.Fatalf("the frame after an accepted one read as %+v, %v (%d bytes left)", cur, err, r.Len())
			}
		}
	})
}

// FuzzReadDayRefLog holds the day-log reader — what every resume reads —
// to "refs or an error, never a panic". An accepted log is closed under
// its own reading: the frames it restored fill exactly the prefix it
// reports, that prefix reads back as the same days with nothing torn, no
// day repeats, and every ref survives a re-encode.
func FuzzReadDayRefLog(f *testing.F) {
	var log []byte
	for day := clock.Day(26); day < 29; day++ {
		b, err := EncodeFrame(&DayRef{Day: day, File: "day_000027.dcol", SHA256: "9f86d081"})
		if err != nil {
			f.Fatal(err)
		}
		log = append(log, b...)
	}
	flipped := bytes.Clone(log)
	flipped[len(flipped)-9] ^= 0x10
	f.Add(log)
	f.Add(log[:len(log)-5])
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, b []byte) {
		refs, n, err := readDayRefLog(b)
		if err != nil {
			return
		}
		if n > len(b) {
			t.Fatalf("complete prefix %d of a %d-byte log", n, len(b))
		}
		again, m, err := readDayRefLog(b[:n])
		if err != nil || m != n || !reflect.DeepEqual(again, refs) {
			t.Fatalf("the complete prefix reads back as %+v, %d, %v; want %+v, %d", again, m, err, refs, n)
		}
		seen := make(map[clock.Day]bool)
		for _, ref := range refs {
			if seen[ref.Day] {
				t.Fatalf("day %v restored twice", ref.Day)
			}
			seen[ref.Day] = true
			frame, err := EncodeFrame(&ref)
			var back DayRef
			if err != nil || DecodeFrame(frame, &back) != nil || back != ref {
				t.Fatalf("restored %+v does not survive a re-encode (%v): %+v", ref, err, back)
			}
		}
	})
}
