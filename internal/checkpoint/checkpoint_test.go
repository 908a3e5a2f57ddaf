package checkpoint

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dnsddos/internal/clock"
)

// testRecord is an arbitrary journal payload for the generic Write/Load
// surface (the shape of the distributed join's range records).
type testRecord struct {
	Day   clock.Day
	Names []string
	Sum   int64
}

func testRef(day clock.Day) DayRef {
	return DayRef{File: fmt.Sprintf("day_%06d.dcol", int32(day)), SHA256: "0123abcd"}
}

func testHeader() Header {
	return Header{ConfigHash: "abc123", Seed: 42}
}

func TestWriteLoadRoundTrip(t *testing.T) {
	d, err := Create(t.TempDir(), testHeader())
	if err != nil {
		t.Fatal(err)
	}
	want := testRecord{Day: 17, Names: []string{"ns-a", "ns-b"}, Sum: 1 << 40}
	if err := d.Write("range_0017.ckpt", &want); err != nil {
		t.Fatal(err)
	}
	var got testRecord
	ok, err := d.Load("range_0017.ckpt", &got)
	if err != nil || !ok {
		t.Fatalf("Load = ok %v, err %v", ok, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Load = %+v, want %+v", got, want)
	}
}

func TestLoadDayMissingIsNotAnError(t *testing.T) {
	d, err := Create(t.TempDir(), testHeader())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := d.LoadDayRef(5); ok || err != nil {
		t.Fatalf("missing day: ok %v err %v, want false nil", ok, err)
	}
}

// TestLoadDaysSkipsGaps: loading a day range returns exactly the journaled
// days inside it — gaps read as absent, records outside [from, to] are
// not picked up.
func TestLoadDaysSkipsGaps(t *testing.T) {
	d, err := Create(t.TempDir(), testHeader())
	if err != nil {
		t.Fatal(err)
	}
	for _, day := range []clock.Day{3, 5, 6, 9} {
		if err := d.WriteDayRef(day, testRef(day)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := d.LoadDayRefs(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := map[clock.Day]DayRef{5: testRef(5), 6: testRef(6)}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("LoadDayRefs(4, 8) = %v, want %v", got, want)
	}
}

// corruptedDir journals one day reference (day 9) and one generic record,
// then damages both files the same way: every record rides one envelope,
// so every refusal must hold for the typed and the generic entry point.
func corruptedDir(t *testing.T, corrupt func(path string)) *Dir {
	t.Helper()
	d, err := Create(t.TempDir(), testHeader())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteDayRef(9, testRef(9)); err != nil {
		t.Fatal(err)
	}
	if err := d.Write("aux.ckpt", &testRecord{Day: 9}); err != nil {
		t.Fatal(err)
	}
	corrupt(filepath.Join(d.Path(), dayRefFile(9)))
	corrupt(filepath.Join(d.Path(), "aux.ckpt"))
	return d
}

// loadBoth returns the errors of loading the damaged day reference and
// the damaged generic record.
func loadBoth(d *Dir) (refErr, auxErr error) {
	_, _, refErr = d.LoadDayRef(9)
	_, auxErr = d.Load("aux.ckpt", &testRecord{})
	return refErr, auxErr
}

func TestLoadDayRejectsTruncation(t *testing.T) {
	d := corruptedDir(t, func(p string) {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, b[:len(b)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	})
	refErr, auxErr := loadBoth(d)
	for _, err := range []error{refErr, auxErr} {
		if err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("truncated file error = %v, want truncation report", err)
		}
	}
	if _, err := d.LoadDayRefs(0, 10); err == nil {
		t.Fatal("LoadDayRefs must fail on a corrupt member")
	}
}

func TestLoadDayRejectsBitFlip(t *testing.T) {
	d := corruptedDir(t, func(p string) {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		b[len(magic)+12+3] ^= 0x40 // flip one payload bit
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
	})
	refErr, auxErr := loadBoth(d)
	for _, err := range []error{refErr, auxErr} {
		if err == nil || !strings.Contains(err.Error(), "crc") {
			t.Fatalf("bit-flip error = %v, want crc mismatch", err)
		}
	}
}

func TestLoadDayRejectsWrongMagic(t *testing.T) {
	d := corruptedDir(t, func(p string) {
		if err := os.WriteFile(p, []byte("not a checkpoint at all........."), 0o644); err != nil {
			t.Fatal(err)
		}
	})
	refErr, auxErr := loadBoth(d)
	if refErr == nil || auxErr == nil {
		t.Fatalf("garbage file accepted (ref %v, aux %v)", refErr, auxErr)
	}
}

func TestLoadDayRejectsVersionSkew(t *testing.T) {
	d := corruptedDir(t, func(p string) {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		b[len(magic)+3] = 99 // version field
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
	})
	refErr, auxErr := loadBoth(d)
	for _, err := range []error{refErr, auxErr} {
		if err == nil || !strings.Contains(err.Error(), "version") {
			t.Fatalf("version-skew error = %v", err)
		}
	}
}

func TestResumeChecksHeader(t *testing.T) {
	dir := t.TempDir()
	if _, err := Create(dir, testHeader()); err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(dir, testHeader()); err != nil {
		t.Fatalf("matching resume failed: %v", err)
	}
	if _, err := Resume(dir, Header{ConfigHash: "other", Seed: 42}); err == nil {
		t.Fatal("config-hash mismatch accepted")
	}
	if _, err := Resume(dir, Header{ConfigHash: "abc123", Seed: 7}); err == nil {
		t.Fatal("seed mismatch accepted")
	}
	if _, err := Resume(t.TempDir(), testHeader()); err == nil {
		t.Fatal("resume without header accepted")
	}
	// a journal written by the version-1 format (gob day blobs) is refused
	// outright, not re-swept or half-trusted
	legacy := []byte(`{"version": 1, "config_hash": "abc123", "seed": 42}`)
	if err := os.WriteFile(filepath.Join(dir, headerName), legacy, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(dir, testHeader()); err == nil || !strings.Contains(err.Error(), "format version 1") {
		t.Fatalf("version-1 journal: err = %v, want a format version refusal", err)
	}
}

func TestCreateWipesPreviousRun(t *testing.T) {
	dir := t.TempDir()
	d, err := Create(dir, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteDayRef(4, testRef(4)); err != nil {
		t.Fatal(err)
	}
	// a fresh (non-resume) run over the same dir must not inherit days
	d2, err := Create(dir, Header{ConfigHash: "new", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := d2.LoadDayRef(4); ok || err != nil {
		t.Fatalf("stale day survived Create: ok %v err %v", ok, err)
	}
}

func TestWriteIsAtomic(t *testing.T) {
	// After a write returns, no temp files linger and the payload is
	// complete; the atomic rename is what a mid-write crash relies on. A
	// stale temp file from a crashed writer is neither loaded nor fatal.
	dir := t.TempDir()
	d, err := Create(dir, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteDayRef(1, testRef(1)); err != nil {
		t.Fatal(err)
	}
	if err := d.Write("aux.ckpt", &testRecord{Day: 1}); err != nil {
		t.Fatal(err)
	}
	tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tmps) != 0 {
		t.Errorf("temp files left behind: %v", tmps)
	}
	stale := filepath.Join(dir, dayRefFile(2)+".tmp-123")
	if err := os.WriteFile(stale, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	refs, err := d.LoadDayRefs(0, 5)
	if err != nil || len(refs) != 1 {
		t.Fatalf("LoadDayRefs beside a stale temp file = %v, err %v; want day 1 only", refs, err)
	}
}
