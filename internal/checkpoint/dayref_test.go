package checkpoint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dnsddos/internal/clock"
)

// dayref_test.go covers the sealed-file reference records (the journal's
// only day record) and the generic Store surface they ride on: refs
// round-trip, gaps read as absent, and the ref journal enjoys the same
// framing integrity as every other record.

func TestDayRefRoundTrip(t *testing.T) {
	d, err := Create(t.TempDir(), testHeader())
	if err != nil {
		t.Fatal(err)
	}
	want := DayRef{File: "day_000017.dcol", SHA256: "deadbeef"}
	if err := d.WriteDayRef(17, want); err != nil {
		t.Fatal(err)
	}
	got, ok, err := d.LoadDayRef(17)
	if err != nil || !ok {
		t.Fatalf("LoadDayRef = ok %v, err %v", ok, err)
	}
	if got != want {
		t.Fatalf("LoadDayRef = %+v, want %+v", got, want)
	}
	if _, ok, err := d.LoadDayRef(18); ok || err != nil {
		t.Fatalf("missing ref: ok %v err %v, want false nil", ok, err)
	}
}

func TestLoadDayRefsSkipsGaps(t *testing.T) {
	d, err := Create(t.TempDir(), testHeader())
	if err != nil {
		t.Fatal(err)
	}
	for _, day := range []clock.Day{3, 5} {
		if err := d.WriteDayRef(day, DayRef{File: dayRefFile(day), SHA256: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	refs, err := d.LoadDayRefs(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 2 {
		t.Fatalf("LoadDayRefs returned %d refs, want 2: %v", len(refs), refs)
	}
	for _, day := range []clock.Day{3, 5} {
		if _, ok := refs[day]; !ok {
			t.Fatalf("day %d missing from %v", day, refs)
		}
	}
}

// TestStoreInterfaceRoundTrip exercises Dir's named-record surface
// (Write/Load), which the coordinator's join journal and the stream
// cursor are layered on.
func TestStoreInterfaceRoundTrip(t *testing.T) {
	d, err := Create(t.TempDir(), testHeader())
	if err != nil {
		t.Fatal(err)
	}
	type cursor struct{ Day clock.Day }
	if err := d.Write("cursor.ckpt", &cursor{Day: 9}); err != nil {
		t.Fatal(err)
	}
	var got cursor
	ok, err := d.Load("cursor.ckpt", &got)
	if err != nil || !ok || got.Day != 9 {
		t.Fatalf("Load = %+v ok %v err %v", got, ok, err)
	}
	if ok, err := d.Load("absent.ckpt", &got); ok || err != nil {
		t.Fatalf("absent record: ok %v err %v", ok, err)
	}
	if err := d.Write("../escape.ckpt", &got); err == nil {
		t.Fatal("Write accepted a path-traversal name")
	}
}

// TestDayRefRejectsBitFlip: ref records ride the same checked frame as
// every other record.
func TestDayRefRejectsBitFlip(t *testing.T) {
	dir := t.TempDir()
	d, err := Create(dir, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteDayRef(6, DayRef{File: "day_000006.dcol", SHA256: "z"}); err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, dayRefFile(6))
	b, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-7] ^= 0x40
	if err := os.WriteFile(p, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.LoadDayRef(6); err == nil || !strings.Contains(err.Error(), "crc") {
		t.Fatalf("bit-flip error = %v, want crc mismatch", err)
	}
}
