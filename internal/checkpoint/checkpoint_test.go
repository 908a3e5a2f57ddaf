package checkpoint

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dnsddos/internal/clock"
)

func testRef(day clock.Day) DayRef {
	return DayRef{Day: day, File: fmt.Sprintf("day_%06d.dcol", int32(day)), SHA256: "0123abcd"}
}

func testHeader() Header {
	return Header{ConfigHash: "abc123", Seed: 42}
}

// create starts a fresh journal in a temporary directory, closed when the
// test ends.
func create(t testing.TB) *Dir {
	t.Helper()
	d, err := Create(t.TempDir(), testHeader())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func TestLoadDayMissingIsNotAnError(t *testing.T) {
	d := create(t)
	if refs, err := d.LoadDayRefs(5, 5); len(refs) != 0 || err != nil {
		t.Fatalf("missing day: refs %v err %v, want none and nil", refs, err)
	}
}

// TestLoadDaysSkipsGaps: loading a day range returns exactly the journaled
// days inside it — gaps read as absent, records outside [from, to] are
// not picked up.
func TestLoadDaysSkipsGaps(t *testing.T) {
	d := create(t)
	for _, day := range []clock.Day{3, 5, 6, 9} {
		if err := d.WriteDayRef(day, testRef(day)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := d.LoadDayRefs(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := map[clock.Day][]DayRef{5: {testRef(5)}, 6: {testRef(6)}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("LoadDayRefs(4, 8) = %v, want %v", got, want)
	}
}

// corruptedDir journals days 9 and 10 and a stream cursor, then damages
// the cursor and day 9's frame — the first in the log, with day 10's
// behind it — the same way: every record rides one envelope, so every
// refusal must hold for the day log and the cursor.
func corruptedDir(t *testing.T, corrupt func(frame []byte) []byte) *Dir {
	t.Helper()
	d := create(t)
	for _, day := range []clock.Day{9, 10} {
		if err := d.WriteDayRef(day, testRef(day)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.WriteCursor(Cursor{ClosedThrough: 9}); err != nil {
		t.Fatal(err)
	}
	aux := filepath.Join(d.Path(), cursorName)
	b, err := os.ReadFile(aux)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(aux, corrupt(b), 0o644); err != nil {
		t.Fatal(err)
	}
	log := filepath.Join(d.Path(), DayLog)
	if b, err = os.ReadFile(log); err != nil {
		t.Fatal(err)
	}
	first := len(b) / 2 // both frames are the same size
	b = append(corrupt(bytes.Clone(b[:first])), b[first:]...)
	if err := os.WriteFile(log, b, 0o644); err != nil {
		t.Fatal(err)
	}
	d.Close()
	d, err = Resume(d.Path(), testHeader())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// loadBoth returns the errors of loading the damaged day log and the
// damaged cursor.
func loadBoth(d *Dir) (refErr, auxErr error) {
	_, refErr = d.LoadDayRefs(0, 20)
	_, _, auxErr = d.LoadCursor()
	return refErr, auxErr
}

// TestLoadDayRejectsTruncation: a record cut short is refused; in the day
// log that is a frame cut with frames after it (a cut final frame is the
// torn append TestDayLogEveryCut covers).
func TestLoadDayRejectsTruncation(t *testing.T) {
	d := corruptedDir(t, func(b []byte) []byte { return b[:len(b)/2] })
	refErr, auxErr := loadBoth(d)
	if auxErr == nil || !strings.Contains(auxErr.Error(), "truncated") {
		t.Fatalf("truncated record error = %v, want truncation report", auxErr)
	}
	if refErr == nil {
		t.Fatal("LoadDayRefs accepted a log whose first frame was cut")
	}
}

func TestLoadDayRejectsBitFlip(t *testing.T) {
	d := corruptedDir(t, func(b []byte) []byte {
		b[len(magic)+12+3] ^= 0x40 // flip one payload bit
		return b
	})
	refErr, auxErr := loadBoth(d)
	for _, err := range []error{refErr, auxErr} {
		if err == nil || !strings.Contains(err.Error(), "crc") {
			t.Fatalf("bit-flip error = %v, want crc mismatch", err)
		}
	}
}

func TestLoadDayRejectsWrongMagic(t *testing.T) {
	d := corruptedDir(t, func([]byte) []byte { return []byte("not a checkpoint at all.........") })
	refErr, auxErr := loadBoth(d)
	if refErr == nil || auxErr == nil {
		t.Fatalf("garbage file accepted (ref %v, aux %v)", refErr, auxErr)
	}
}

func TestLoadDayRejectsVersionSkew(t *testing.T) {
	d := corruptedDir(t, func(b []byte) []byte {
		b[len(magic)+3] = 99 // version field
		return b
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
	// a journal of an older layout (layout 1's gob day blobs, layout 2's
	// file per day, layouts 3 and 4's gob frames) is refused outright, not
	// re-swept or half-trusted
	for _, v := range []string{"1", "2", "3", "4"} {
		legacy := []byte(`{"version": ` + v + `, "config_hash": "abc123", "seed": 42}`)
		if err := os.WriteFile(filepath.Join(dir, headerName), legacy, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Resume(dir, testHeader()); err == nil || !strings.Contains(err.Error(), "format version "+v) {
			t.Fatalf("layout-%s journal: err = %v, want a format version refusal", v, err)
		}
	}
}

func TestCreateWipesPreviousRun(t *testing.T) {
	dir := t.TempDir()
	d, err := Create(dir, testHeader())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.WriteDayRef(4, testRef(4)); err != nil {
		t.Fatal(err)
	}
	// a fresh (non-resume) run over the same dir must not inherit days
	d2, err := Create(dir, Header{ConfigHash: "new", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if refs, err := d2.LoadDayRefs(0, 10); len(refs) != 0 || err != nil {
		t.Fatalf("stale day survived Create: refs %v err %v", refs, err)
	}
}

// TestCreateClearsKilledWriterLeftovers: the temp files of a writer killed
// before its rename are stale state like the records they were to become,
// so a fresh run removes them; a file the journal did not write stays.
func TestCreateClearsKilledWriterLeftovers(t *testing.T) {
	dir := t.TempDir()
	leftovers := []string{cursorName + ".tmp-123", headerName + ".tmp-456"}
	for _, name := range append([]string{"notes.txt"}, leftovers...) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Create(dir, testHeader()); err != nil {
		t.Fatal(err)
	}
	for _, name := range leftovers {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("%s survived Create (stat err %v)", name, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "notes.txt")); err != nil {
		t.Errorf("Create removed a file it does not own: %v", err)
	}
}

func TestWriteIsAtomic(t *testing.T) {
	// After a write returns, no temp files linger and the payload is
	// complete; the atomic rename is what a mid-write crash relies on. A
	// stale temp file from a crashed writer is neither loaded nor fatal,
	// and one left at the name a write uses, longer than the record, is
	// truncated by the next write, not published under its tail.
	d := create(t)
	if err := d.WriteDayRef(1, testRef(1)); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteCursor(Cursor{ClosedThrough: 1}); err != nil {
		t.Fatal(err)
	}
	tmps, err := filepath.Glob(filepath.Join(d.Path(), "*.tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tmps) != 0 {
		t.Errorf("temp files left behind: %v", tmps)
	}
	stale := filepath.Join(d.Path(), cursorName+".tmp-123")
	if err := os.WriteFile(stale, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	killed := filepath.Join(d.Path(), cursorName+".tmp-new")
	if err := os.WriteFile(killed, bytes.Repeat([]byte("torn"), 100), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteCursor(Cursor{ClosedThrough: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(killed); !os.IsNotExist(err) {
		t.Fatalf("the write left its temporary file (stat err %v)", err)
	}
	refs, err := d.LoadDayRefs(0, 5)
	if err != nil || len(refs) != 1 {
		t.Fatalf("LoadDayRefs beside a stale temp file = %v, err %v; want day 1 only", refs, err)
	}
	if cur, ok, err := d.LoadCursor(); !ok || err != nil || cur.ClosedThrough != 2 {
		t.Fatalf("LoadCursor beside a stale temp file = %+v, ok %v, err %v", cur, ok, err)
	}
}
