package checkpoint

import (
	"encoding/binary"
	"encoding/hex"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
)

type framePayload struct {
	Name  string
	Vals  []int64
	Notes map[string]string
}

func TestFrameRoundTrip(t *testing.T) {
	in := framePayload{
		Name:  "window-batch",
		Vals:  []int64{1, 2, 3, 1 << 40},
		Notes: map[string]string{"k": "v"},
	}
	b, err := EncodeFrame(&in)
	if err != nil {
		t.Fatalf("EncodeFrame: %v", err)
	}
	var out framePayload
	if err := DecodeFrame(b, &out); err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if out.Name != in.Name || len(out.Vals) != len(in.Vals) || out.Notes["k"] != "v" {
		t.Fatalf("round trip mismatch: %+v", out)
	}
}

// TestFrameBytesPinned: the journal's bytes are a format — a day reference
// (a frame of the day log) and a stream cursor encode to exactly
// the frames resume reads. gob numbers a process's types in the order it first meets
// them, and those numbers are in the payload, so the bytes are pinned in a
// fresh process (the test re-executes itself) whose first two types are
// these two.
func TestFrameBytesPinned(t *testing.T) {
	if os.Getenv("CHECKPOINT_PINNED_CHILD") == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestFrameBytesPinned$", "-test.count=1")
		cmd.Env = append(os.Environ(), "CHECKPOINT_PINNED_CHILD=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("fresh process: %v\n%s", err, out)
		}
		return
	}
	for _, tc := range []struct {
		v    any
		want string
	}{
		{&DayRef{Day: 27, File: "day_000027.dcol", SHA256: "9f86d081884c7d659a2feaa0c55ad015a3bf4f1b2b0b822cd15d6c15b0f00a08"},
			"444e53434b5054310000000200000000000000892f7f0301010644617952656601ff800001030103446179010400010446696c65010c000106534841323536010c00000058ff800136010f6461795f3030303032372e64636f6c0140396638366430383138383463376436353961326665616130633535616430313561336266346631623262306238323263643135643663313562306630306130380026973e25"},
		{&Cursor{ClosedThrough: 8211, Attacks: 17, Events: 403, SinkBytes: 1 << 20, LastAttackWindow: 8209, LastAttackVictim: 0xc0000201, HaveLast: true},
			"444e53434b5054310000000200000000000000a3ff82ff8103010106437572736f7201ff82000107010d436c6f7365645468726f756768010400010741747461636b7301040001064576656e7473010400010953696e6b427974657301040001104c61737441747461636b57696e646f7701040001104c61737441747461636b56696374696d0106000108486176654c61737401020000001eff8201fe4026012201fe032601fd20000001fe402201fcc000020101010057ca3a6d"},
	} {
		b, err := EncodeFrame(tc.v)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(b); got != tc.want {
			t.Errorf("EncodeFrame(%+v) =\n%s\nwant\n%s", tc.v, got, tc.want)
		}
	}
}

func TestFrameRejectsCorruption(t *testing.T) {
	b, err := EncodeFrame(&framePayload{Name: "x"})
	if err != nil {
		t.Fatalf("EncodeFrame: %v", err)
	}
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
	}
	for _, tc := range cases {
		var out framePayload
		err := DecodeFrame(tc.mut(b), &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want substring %q", tc.name, err, tc.want)
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
		b, err := EncodeFrame(&framePayload{Name: "f", Vals: []int64{int64(i)}})
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
		var out framePayload
		if err := DecodeFrame(rest[:end], &out); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if len(out.Vals) != 1 || out.Vals[0] != int64(i) {
			t.Fatalf("frame %d decoded %+v", i, out)
		}
		rest = rest[end:]
	}
	if len(rest) != 0 {
		t.Fatalf("%d bytes left after the last frame", len(rest))
	}
	if err := DecodeFrame(file, &framePayload{}); err == nil || !strings.Contains(err.Error(), "stray") {
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
	err := DecodeFrame(b, &framePayload{})
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("a short frame read as err = %v, want a truncation", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 64<<10 {
		t.Errorf("decoding a short frame allocated %d bytes", n)
	}
}
