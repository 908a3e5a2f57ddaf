package checkpoint

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"reflect"
	"testing"

	"dnsddos/internal/clock"
)

// restampFrame makes b's length field and CRC trailer agree with the
// payload bytes b carries, so damage to the payload reaches the payload
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
	for _, r := range []Record{&pinnedRef, &pinnedCursor} {
		b, err := EncodeFrame(r)
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
// payload is decoded into the two records the journal holds. A frame
// that decodes re-encodes to its own bytes, and is exactly one frame:
// with an intact frame laid behind it, as frames lie in a day log, it is
// refused, and two intact frames end to end are a seed of their own.
func FuzzDecodeFrame(f *testing.F) {
	journalSeeds(f)
	lead, err := EncodeFrame(&DayRef{File: "day_000001.dcol", SHA256: "lead"})
	if err != nil {
		f.Fatal(err)
	}
	tail, err := EncodeFrame(&Cursor{ClosedThrough: 2, Attacks: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(bytes.Clone(lead), tail...))
	f.Fuzz(func(t *testing.T, b []byte) {
		var ref DayRef
		var cur Cursor
		_ = DecodeFrame(b, &ref)
		if len(b) < headerLen+4 {
			return
		}
		b = restampFrame(b)
		accepted := false
		for _, r := range []Record{&ref, &cur} {
			if DecodeFrame(b, r) == nil {
				accepted = true
				reencodes(t, r, b)
			}
		}
		if accepted && DecodeFrame(append(b, tail...), &cur) == nil {
			t.Fatalf("an accepted frame with a frame behind it decoded as one")
		}
	})
}

// reencodes fails t unless the record r, decoded from frame, encodes
// back to frame's bytes.
func reencodes(t *testing.T, r Record, frame []byte) {
	t.Helper()
	again, err := EncodeFrame(r)
	if err != nil || !bytes.Equal(again, frame) {
		t.Fatalf("decoded %+v re-encodes to %x (%v), not to the frame it came from, %x", r, again, err, frame)
	}
}

// cutFrame cuts the frame that starts stream off it, as a day log is read
// — the header's length marks where the frame ends — decodes it into v
// and returns the bytes behind it.
func cutFrame(stream []byte, v Record) ([]byte, error) {
	if len(stream) < headerLen {
		return nil, fmt.Errorf("%d bytes, short of a header", len(stream))
	}
	n, err := payloadLen(stream)
	if err != nil {
		return nil, err
	}
	if n+4 > uint64(len(stream)-headerLen) {
		return nil, fmt.Errorf("payload of %d bytes runs past the stream", n)
	}
	end := headerLen + int(n) + 4
	return stream[end:], DecodeFrame(stream[:end], v)
}

// FuzzReadFrame holds the reading of a stream of frames, laid end to end
// as a day log holds them, to "error, never panic": the fuzzed bytes, then
// the same bytes re-stamped, are laid after one intact frame and before
// another. Every read takes exactly one frame, so the first frame always
// reads back, and whenever the fuzzed frame reads and ends where the last
// one starts, it re-encodes to its own bytes and the last one must read
// back too.
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
			var ref DayRef
			rest, err := cutFrame(bytes.Join([][]byte{lead, mid, tail}, nil), &ref)
			if err != nil || ref.SHA256 != "lead" {
				t.Fatalf("the frame before the fuzzed bytes read as %+v, %v", ref, err)
			}
			var cur Cursor
			if rest, err = cutFrame(rest, &cur); err != nil || len(rest) != len(tail) {
				continue // refused, or not exactly one frame
			}
			reencodes(t, &cur, mid)
			if rest, err = cutFrame(rest, &cur); err != nil || cur.ClosedThrough != 2 || len(rest) != 0 {
				t.Fatalf("the frame after an accepted one read as %+v, %v (%d bytes left)", cur, err, len(rest))
			}
		}
	})
}

// FuzzReadDayRefLog holds the day-log reader — what every resume reads —
// to "refs or an error, never a panic". An accepted log is closed under
// its own reading: the frames it restored fill exactly the prefix it
// reports, that prefix reads back as the same days with nothing torn, no
// day repeats its previous reference, and the refs re-encode to the prefix's bytes.
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
		last := make(map[clock.Day]DayRef)
		var log []byte
		for _, ref := range refs {
			if prev, ok := last[ref.Day]; ok && prev == ref {
				t.Fatalf("day %v restored twice with the same reference", ref.Day)
			}
			last[ref.Day] = ref
			frame, err := EncodeFrame(&ref)
			if err != nil {
				t.Fatal(err)
			}
			log = append(log, frame...)
		}
		if !bytes.Equal(log, b[:n]) {
			t.Fatalf("restored %+v re-encode to %x, not to the log's complete prefix %x", refs, log, b[:n])
		}
	})
}
