package checkpoint

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dnsddos/internal/clock"
)

// daylog_test.go covers the day log (the journal's only day record):
// refs round-trip, gaps read as absent, and the log keeps the write-ahead
// rule — an incomplete final frame is an unacknowledged append and is
// dropped, everything else is refused.

func TestDayRefRoundTrip(t *testing.T) {
	d := create(t)
	want := DayRef{Day: 17, File: "day_000017.dcol", SHA256: "deadbeef"}
	if err := d.WriteDayRef(17, DayRef{File: want.File, SHA256: want.SHA256}); err != nil {
		t.Fatal(err)
	}
	got, err := d.LoadDayRefs(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, map[clock.Day][]DayRef{17: {want}}) {
		t.Fatalf("LoadDayRefs = %+v, want day 17 only: %+v", got, want)
	}
	refs, err := ReadDayRefs(d.Path())
	if err != nil || !reflect.DeepEqual(refs, []DayRef{want}) {
		t.Fatalf("ReadDayRefs = %+v, %v; want %+v", refs, err, want)
	}
}

// TestLoadDayRefsKeepsEveryRecordOfADay: a day journaled twice loads
// with both references, in log order, so a reader can fall back to the
// earlier one.
func TestLoadDayRefsKeepsEveryRecordOfADay(t *testing.T) {
	d := create(t)
	first, second := testRef(4), DayRef{Day: 4, File: "day_000004.dcol", SHA256: "widened"}
	for _, ref := range []DayRef{first, testRef(5), second} {
		if err := d.WriteDayRef(ref.Day, ref); err != nil {
			t.Fatal(err)
		}
	}
	got, err := d.LoadDayRefs(0, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := map[clock.Day][]DayRef{4: {first, second}, 5: {testRef(5)}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("LoadDayRefs = %+v, want %+v", got, want)
	}
}

func TestLoadDayRefsSkipsGaps(t *testing.T) {
	d := create(t)
	for _, day := range []clock.Day{3, 5} {
		if err := d.WriteDayRef(day, testRef(day)); err != nil {
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

// TestDayRefRejectsBitFlip: the log's frames are checked like every other
// record, the last one included.
func TestDayRefRejectsBitFlip(t *testing.T) {
	d := create(t)
	for _, day := range []clock.Day{6, 7} {
		if err := d.WriteDayRef(day, testRef(day)); err != nil {
			t.Fatal(err)
		}
	}
	p := filepath.Join(d.Path(), DayLog)
	b, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-7] ^= 0x40
	if err := os.WriteFile(p, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadDayRefs(d.Path()); err == nil || !strings.Contains(err.Error(), "crc") {
		t.Fatalf("bit-flip error = %v, want crc mismatch", err)
	}
}

// testLog is a valid log of n frames for days 0..n-1, and the offset each
// frame ends at.
func testLog(t testing.TB, n int) (log []byte, ends []int) {
	t.Helper()
	for day := clock.Day(0); int(day) < n; day++ {
		b, err := EncodeFrame(&DayRef{Day: day, File: testRef(day).File, SHA256: "c0ffee"})
		if err != nil {
			t.Fatal(err)
		}
		log = append(log, b...)
		ends = append(ends, len(log))
	}
	return log, ends
}

// daysOf lists the days of refs in log order.
func daysOf(refs []DayRef) []clock.Day {
	days := []clock.Day{}
	for _, r := range refs {
		days = append(days, r.Day)
	}
	return days
}

// TestDayLogEveryCut: a valid log cut at any byte offset — what a crash
// mid-append leaves — loads exactly the days of the frames complete before
// the cut: never an invented day, never a complete frame dropped, and the
// length it reports is where those frames end.
func TestDayLogEveryCut(t *testing.T) {
	log, ends := testLog(t, 4)
	for cut := 0; cut <= len(log); cut++ {
		complete := 0
		for complete < len(ends) && ends[complete] <= cut {
			complete++
		}
		refs, n, err := readDayRefLog(log[:cut])
		if err != nil {
			t.Fatalf("cut at %d: refused: %v", cut, err)
		}
		want := daysOf(nil)
		for day := 0; day < complete; day++ {
			want = append(want, clock.Day(day))
		}
		if got := daysOf(refs); !reflect.DeepEqual(got, want) {
			t.Fatalf("cut at %d: restored days %v, want %v", cut, got, want)
		}
		wantN := 0
		if complete > 0 {
			wantN = ends[complete-1]
		}
		if n != wantN {
			t.Fatalf("cut at %d: complete prefix %d, want %d", cut, n, wantN)
		}
	}
}

// TestDayLogFlippedByteRefused: a flipped byte in any complete frame
// refuses the log, the last frame included. The one exception is the
// rule's own: a flip that lengthens the final frame's declared payload,
// within the frame bound, makes it run past the end of the log, which is
// exactly what an unacknowledged append looks like — it reads as torn,
// and the frames before it are restored. Lengthening an earlier frame
// swallows the frames behind it, and is refused.
func TestDayLogFlippedByteRefused(t *testing.T) {
	log, ends := testLog(t, 3)
	last := ends[len(ends)-2]
	lengthAt := last + len(magic) + 4
	for i := range log {
		b := bytes.Clone(log)
		b[i] ^= 0x01
		refs, _, err := readDayRefLog(b)
		was, now := binary.BigEndian.Uint64(log[lengthAt:]), binary.BigEndian.Uint64(b[lengthAt:])
		if now > was && now <= maxPayload {
			if err != nil || !reflect.DeepEqual(daysOf(refs), []clock.Day{0, 1}) {
				t.Fatalf("final frame lengthened at byte %d: days %v, err %v; want the torn-tail reading [0 1]", i, daysOf(refs), err)
			}
			continue
		}
		if err == nil {
			t.Fatalf("flipped byte %d accepted: days %v", i, daysOf(refs))
		}
	}
}

// TestDayLogRefusesDuplicateDay: a day logged again with the reference it
// already has is refused, not deduplicated — the ledger journals a day
// again only to change its file.
func TestDayLogRefusesDuplicateDay(t *testing.T) {
	log, ends := testLog(t, 2)
	log = append(log, log[:ends[0]]...)
	if _, _, err := readDayRefLog(log); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("duplicate day: err = %v, want a refusal", err)
	}
}

// TestDayLogTornTailResume: a resume cuts a torn final frame off the log
// before its first append, so after the run finishes a second resume finds
// a pristine log; a read-only ReadDayRefs never cuts it.
func TestDayLogTornTailResume(t *testing.T) {
	d := create(t)
	for day := clock.Day(0); day < 3; day++ {
		if err := d.WriteDayRef(day, testRef(day)); err != nil {
			t.Fatal(err)
		}
	}
	d.Close()
	p := filepath.Join(d.Path(), DayLog)
	b, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(p, int64(len(b)-5)); err != nil { // day 2 torn
		t.Fatal(err)
	}

	if refs, err := ReadDayRefs(d.Path()); err != nil || !reflect.DeepEqual(daysOf(refs), []clock.Day{0, 1}) {
		t.Fatalf("ReadDayRefs of a torn log = %v, %v; want days [0 1]", daysOf(refs), err)
	}
	if fi, err := os.Stat(p); err != nil || fi.Size() != int64(len(b)-5) {
		t.Fatalf("ReadDayRefs changed the log (stat %v, err %v)", fi, err)
	}

	r, err := Resume(d.Path(), testHeader())
	if err != nil {
		t.Fatal(err)
	}
	refs, err := r.LoadDayRefs(0, 10)
	if err != nil || len(refs) != 2 {
		t.Fatalf("resume of a torn log = %v, %v; want days 0 and 1", refs, err)
	}
	for day := clock.Day(2); day < 4; day++ { // the rest of the run
		if err := r.WriteDayRef(day, testRef(day)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteDayRef(9, testRef(9)); err == nil {
		t.Fatal("an append after Close succeeded")
	}

	again, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for day := clock.Day(0); day < 4; day++ {
		ref := testRef(day)
		frame, err := EncodeFrame(&ref)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, frame...)
	}
	if !bytes.Equal(again, want) {
		t.Fatalf("log after the resumed run is %d bytes, want the %d of days 0-3's frames", len(again), len(want))
	}
	r2, err := Resume(d.Path(), testHeader())
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	refs, err = r2.LoadDayRefs(0, 10)
	wantRefs := map[clock.Day][]DayRef{0: {testRef(0)}, 1: {testRef(1)}, 2: {testRef(2)}, 3: {testRef(3)}}
	if err != nil || !reflect.DeepEqual(refs, wantRefs) {
		t.Fatalf("second resume = %v, %v; want %v", refs, err, wantRefs)
	}
}

// BenchmarkWriteDayRef journals 150 days — the repo benchmark's study —
// per op into a fresh journal; its allocs/op are the log's opening, since
// an append allocates nothing.
func BenchmarkWriteDayRef(b *testing.B) {
	b.ReportAllocs()
	dir := b.TempDir()
	refs := make([]DayRef, 150)
	for day := range refs {
		refs[day] = testRef(clock.Day(day))
	}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d, err := Create(dir, testHeader())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		for _, ref := range refs {
			if err := d.WriteDayRef(ref.Day, ref); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		d.Close()
		b.StartTimer()
	}
}
