package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"runtime"
	"strings"
	"testing"

	"dnsddos/internal/clock"
)

// pinnedRef and pinnedCursor are the records TestFrameBytesPinned pins;
// the fuzz targets seed with them too.
var (
	pinnedRef    = DayRef{Day: 27, File: "day_000027.dcol", SHA256: "9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08"}
	pinnedCursor = Cursor{ClosedThrough: 8211, Attacks: 17, Events: 403, SinkBytes: 1 << 20, LastAttackWindow: 8209, LastAttackVictim: 0xc0000201, HaveLast: true}
)

// TestFrameRoundTrip: both records come back from their frames field for
// field, negative and zero values and empty strings included.
func TestFrameRoundTrip(t *testing.T) {
	for _, ref := range []DayRef{pinnedRef, {Day: -3}, {Day: 1 << 30, File: "x", SHA256: ""}} {
		b, err := EncodeFrame(&ref)
		if err != nil {
			t.Fatal(err)
		}
		var out DayRef
		if err := DecodeFrame(b, &out); err != nil || out != ref {
			t.Fatalf("DayRef %+v came back as %+v, %v", ref, out, err)
		}
	}
	for _, cur := range []Cursor{pinnedCursor, {}, {ClosedThrough: -1, Attacks: -2, Events: -3, SinkBytes: -4, LastAttackWindow: -5, LastAttackVictim: 0xffffffff}} {
		b, err := EncodeFrame(&cur)
		if err != nil {
			t.Fatal(err)
		}
		var out Cursor
		if err := DecodeFrame(b, &out); err != nil || out != cur {
			t.Fatalf("Cursor %+v came back as %+v, %v", cur, out, err)
		}
	}
}

// TestFrameBytesPinned: the journal's bytes are a format — a day reference
// (a frame of the day log) and a stream cursor encode to exactly the
// frames resume reads, at frame version 3.
func TestFrameBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		r    Record
		want string
	}{
		{&pinnedRef,
			"444e53434b50543100000003000000000000005b0000001b0000000f6461795f3030303032372e64636f6c000000403966383664303831383834633764363539613266656161306335356164303135613362663466316232623062383232636431356436633135623066303061303850d7e557"},
		{&pinnedCursor,
			"444e53434b50543100000003000000000000002d00000000000020130000000000000011000000000000019300000000001000000000000000002011c00002010134b742cc"},
	} {
		b, err := EncodeFrame(tc.r)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(b); got != tc.want {
			t.Errorf("EncodeFrame(%+v) =\n%s\nwant\n%s", tc.r, got, tc.want)
		}
	}
}

// rawFrame wraps payload in an intact envelope: the right magic, version,
// length and CRC, so only the payload decoder can refuse it.
func rawFrame(payload []byte) []byte {
	b := append([]byte(magic), 0, 0, 0, Version)
	b = binary.BigEndian.AppendUint64(b, uint64(len(payload)))
	b = append(b, payload...)
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
}

// payloadOf returns the payload of r's frame.
func payloadOf(t *testing.T, r Record) []byte {
	t.Helper()
	b, err := EncodeFrame(r)
	if err != nil {
		t.Fatal(err)
	}
	return b[headerLen : len(b)-4]
}

func TestFrameRejectsCorruption(t *testing.T) {
	b, err := EncodeFrame(&DayRef{Day: 1, File: "x"})
	if err != nil {
		t.Fatalf("EncodeFrame: %v", err)
	}
	ref, cur := payloadOf(t, &pinnedRef), payloadOf(t, &pinnedCursor)
	cases := []struct {
		name string
		mut  func([]byte) []byte
		want string
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)-3] }, "truncated"},
		{"bitflip", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[headerLen] ^= 0x40
			return c
		}, "crc mismatch"},
		{"badmagic", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[0] ^= 0xff
			return c
		}, "not a checkpoint frame"},
		{"version", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(magic)+3]++
			return c
		}, "format version"},
		{"empty", func([]byte) []byte { return nil }, "truncated"},
		{"oversized", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			binary.BigEndian.PutUint64(c[len(magic)+4:], maxPayload+1)
			return c
		}, "exceeds"},
		{"stray bytes", func(b []byte) []byte { return append(append([]byte(nil), b...), 0) }, "stray"},
		// The rows below pass the CRC: only the payload decoder refuses them.
		{"name length past the payload end", func([]byte) []byte {
			c := bytes.Clone(ref)
			binary.BigEndian.PutUint32(c[4:], uint32(len(c)))
			return rawFrame(c)
		}, "ends inside a field"},
		{"trailing payload bytes", func([]byte) []byte { return rawFrame(append(bytes.Clone(ref), 0)) }, "after the last field"},
		{"empty payload", func([]byte) []byte { return rawFrame(nil) }, "ends inside a field"},
	}
	for _, tc := range cases {
		var out DayRef
		err := DecodeFrame(tc.mut(b), &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
		if out != (DayRef{}) {
			t.Fatalf("%s: a refused frame left %+v", tc.name, out)
		}
	}
	for _, tc := range []struct {
		name    string
		payload []byte
		want    string
	}{
		{"cursor payload one byte short", cur[:len(cur)-1], "ends inside a field"},
		{"cursor payload one byte long", append(bytes.Clone(cur), 1), "after the last field"},
		{"bool byte 2", append(bytes.Clone(cur[:len(cur)-1]), 2), "bool byte 2"},
		{"a day reference read as a cursor", ref, "after the last field"},
	} {
		var out Cursor
		err := DecodeFrame(rawFrame(tc.payload), &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
		if out != (Cursor{}) {
			t.Fatalf("%s: a refused frame left %+v", tc.name, out)
		}
	}
}

// TestFramesConcatenate: a day log is frames laid end to end; each
// header's length cuts the next frame off the log, DecodeFrame takes it
// back, and the frames come back in order. Two frames handed to
// DecodeFrame as one are refused: the second is stray bytes.
func TestFramesConcatenate(t *testing.T) {
	var file []byte
	for i := 0; i < 5; i++ {
		b, err := EncodeFrame(&DayRef{Day: clock.Day(i), File: strings.Repeat("f", i)})
		if err != nil {
			t.Fatalf("EncodeFrame %d: %v", i, err)
		}
		file = append(file, b...)
	}
	rest := file
	for i := 0; i < 5; i++ {
		n, err := payloadLen(rest)
		if err != nil {
			t.Fatalf("frame %d header: %v", i, err)
		}
		end := headerLen + int(n) + 4
		var out DayRef
		if err := DecodeFrame(rest[:end], &out); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if out.Day != clock.Day(i) || len(out.File) != i {
			t.Fatalf("frame %d decoded %+v", i, out)
		}
		rest = rest[end:]
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left after the last frame", len(rest))
	}
	if err := DecodeFrame(file, &DayRef{}); err == nil || !strings.Contains(err.Error(), "stray") {
		t.Fatalf("five frames decoded as one: err = %v, want stray bytes", err)
	}
}

// TestDecodeFrameShortSliceAllocatesNothing: a header that promises the
// largest payload the bound admits, followed by ten bytes, is a short
// frame, and finding that out allocates nothing in step with the 64 MiB
// the header claimed: the payload is read where it lies.
func TestDecodeFrameShortSliceAllocatesNothing(t *testing.T) {
	b := append([]byte(magic), 0, 0, 0, Version)
	b = binary.BigEndian.AppendUint64(b, maxPayload)
	b = append(b, make([]byte, 10)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := DecodeFrame(b, &DayRef{})
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("a short frame read as err = %v, want a truncation", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 64<<10 {
		t.Errorf("decoding a short frame allocated %d bytes", n)
	}
}

// TestWriteDayRefAllocatesNothing: once the day log is open and its frame
// buffer has grown, an append encodes into that buffer and allocates
// nothing.
func TestWriteDayRefAllocatesNothing(t *testing.T) {
	d := create(t)
	ref := testRef(0)
	if err := d.WriteDayRef(0, ref); err != nil {
		t.Fatal(err)
	}
	day := clock.Day(0)
	allocs := testing.AllocsPerRun(50, func() {
		day++
		if err := d.WriteDayRef(day, ref); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("WriteDayRef allocated %.1f objects per append after the first, want 0", allocs)
	}
}
