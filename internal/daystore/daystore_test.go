package daystore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"dnsddos/internal/clock"
	"dnsddos/internal/core"
	"dnsddos/internal/netx"
	"dnsddos/internal/nsset"
)

// randomAggregator fills an aggregator with a seeded random world: nKeys
// NSSets measured across days [0, nDays) with sparse windows, mixed
// statuses, and some keys deliberately missing some days.
func randomAggregator(rng *rand.Rand, nKeys, nDays int) *nsset.Aggregator {
	agg := nsset.NewAggregator()
	fillRandom(agg, rng, nKeys, nDays)
	return agg
}

// fillRandom adds randomAggregator's world to agg (which may carry a
// window filter).
func fillRandom(agg *nsset.Aggregator, rng *rand.Rand, nKeys, nDays int) {
	days := make([]clock.Day, nDays)
	for d := range days {
		days[d] = clock.Day(d)
	}
	fillRandomDays(agg, rng, nKeys, days)
}

// fillRandomDays is fillRandom over the given days, which need not be
// consecutive: a day left out has no measurements, so no sealed file.
func fillRandomDays(agg *nsset.Aggregator, rng *rand.Rand, nKeys int, days []clock.Day) {
	for ki := 0; ki < nKeys; ki++ {
		k := nsset.KeyOf([]netx.Addr{netx.Addr(0xC0000200 + uint32(ki)), netx.Addr(0xC6336400 + uint32(rng.Intn(64)))})
		for _, day := range days {
			if rng.Intn(4) == 0 { // key absent this day
				continue
			}
			samples := 1 + rng.Intn(8)
			for s := 0; s < samples; s++ {
				w := day.FirstWindow() + clock.Window(rng.Int63n(clock.WindowsPerDay))
				status := nsset.StatusOK
				switch rng.Intn(5) {
				case 0:
					status = nsset.StatusTimeout
				case 1:
					status = nsset.StatusServFail
				}
				rtt := time.Duration(1+rng.Intn(250)) * time.Millisecond
				agg.Add(k, w.Start().Add(time.Duration(rng.Intn(300))*time.Second), status, rtt)
			}
		}
	}
}

// sealDays splits a multi-day snapshot by calendar day and seals one file
// per day — the tests' way of turning a random aggregator into a store.
func sealDays(dir string, snap nsset.Snapshot) error {
	byDay := make(map[clock.Day]*nsset.Snapshot)
	sub := func(d clock.Day) *nsset.Snapshot {
		if byDay[d] == nil {
			byDay[d] = &nsset.Snapshot{}
		}
		return byDay[d]
	}
	for _, ws := range snap.Windows {
		s := sub(ws.M.Window.Day())
		s.Windows = append(s.Windows, ws)
	}
	for _, bs := range snap.Baselines {
		s := sub(bs.B.Day)
		s.Baselines = append(s.Baselines, bs)
	}
	for d, s := range byDay {
		if _, err := SealDay(dir, d, *s); err != nil {
			return err
		}
	}
	return nil
}

// randomSpan draws the [from, to] of one ranged read over days [0, last],
// day hole among them unmeasured. The kinds cycle: from > to, inside one
// day, across days, across the hole, and out past both ends.
func randomSpan(rng *rand.Rand, kind int, hole, last clock.Day) (from, to clock.Window) {
	in := func(d clock.Day) clock.Window { return d.FirstWindow() + clock.Window(rng.Int63n(clock.WindowsPerDay)) }
	day := func() clock.Day { return clock.Day(rng.Intn(int(last) + 1)) }
	switch kind % 5 {
	case 0:
		to = in(day())
		return to + 1 + clock.Window(rng.Intn(600)), to
	case 1:
		d := day()
		from, to = in(d), in(d)
	case 2:
		from, to = in(day()), in(day())
	case 3:
		return in(hole - 1), in(hole + 1)
	default:
		return clock.Day(-2).FirstWindow(), in(last + 2)
	}
	if from > to {
		from, to = to, from
	}
	return from, to
}

// TestObservationEquivalence is the property test pinning the DayStore
// contract: a snapshot sealed through the columnar writer and read back
// through mmap views must be observationally identical to the live
// aggregator store — same keys, same baselines, and for random [from, to]
// the same ranged read, which on both backends is the filter of the
// NSSet's full window list, appended behind a dst prefix that is left
// intact (empty spans, single-window hits and misses, spans across days
// and across a day that has no file, from > to). A third subject holds
// the same files' bytes in memory (Set.Put, put last day first) and must
// answer every read exactly as the opened files do. Seed 6 runs behind a
// window filter that rejects every window of most keys: a baseline-only
// NSSet is in both backends' Keys().
func TestObservationEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		agg := nsset.NewAggregator()
		if seed == 6 {
			agg.SetWindowFilter(func(_ nsset.ID, w clock.Window) bool { return int64(w)%clock.WindowsPerDay < 6 })
		}
		// days [0, last] but for one in the middle, which gets no file
		last := clock.Day(4 + rng.Intn(4))
		hole := 1 + clock.Day(rng.Intn(int(last)-1))
		var days []clock.Day
		for d := clock.Day(0); d <= last; d++ {
			if d != hole {
				days = append(days, d)
			}
		}
		fillRandomDays(agg, rng, 10+rng.Intn(20), days)
		ref := core.DayStore(agg)

		dir := t.TempDir()
		snap := agg.Snapshot()
		if err := sealDays(dir, snap); err != nil {
			t.Fatalf("seed %d: sealing: %v", seed, err)
		}
		if _, err := os.Stat(filepath.Join(dir, FileName(hole))); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("seed %d: unmeasured day %d has a file (%v)", seed, hole, err)
		}
		set, err := Open(dir)
		if err != nil {
			t.Fatalf("seed %d: Open: %v", seed, err)
		}
		defer set.Close()
		if err := set.Verify(); err != nil {
			t.Fatalf("seed %d: Verify: %v", seed, err)
		}
		var mem Set
		held := set.heldDays()
		for i := len(held) - 1; i >= 0; i-- {
			d := held[i]
			image, err := os.ReadFile(filepath.Join(dir, FileName(d)))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := mem.Put(d, image); err != nil {
				t.Fatalf("seed %d: Put(%d): %v", seed, d, err)
			}
		}
		stores := map[string]core.DayStore{"Set": set, "memory": &mem, "Aggregator": ref}

		keys := agg.Keys()
		if got, mk := set.Keys(), mem.Keys(); !reflect.DeepEqual(got, keys) || !reflect.DeepEqual(mk, keys) {
			t.Fatalf("seed %d: Keys = %d keys (%d in memory), want %d", seed, len(got), len(mk), len(keys))
		}
		bare := 0
		for _, k := range keys {
			if len(agg.Windows(k)) == 0 {
				bare++
			}
		}
		if seed == 6 && (bare == 0 || bare == len(keys)) {
			t.Fatalf("seed 6: %d of %d keys are baseline-only; the filter case needs both kinds", bare, len(keys))
		}

		prefix := nsset.WindowMetrics{Window: -7, Domains: 7}
		empty, filled := 0, 0
		// the last key is unknown to both backends: valid empty reads
		for _, k := range append(keys, nsset.KeyOf([]netx.Addr{netx.Addr(1)})) {
			for d := clock.Day(-1); d <= last+1; d++ {
				wb, wok := ref.Baseline(k, d)
				for name, ds := range stores {
					if gb, gok := ds.Baseline(k, d); gok != wok || gb != wb {
						t.Fatalf("seed %d: %s.Baseline(%s, %d) = %+v, %v, want %+v, %v", seed, name, k, d, gb, gok, wb, wok)
					}
				}
			}
			full := agg.Windows(k)
			check := func(from, to clock.Window) {
				want := []nsset.WindowMetrics{prefix}
				for _, m := range full {
					if from <= m.Window && m.Window <= to {
						want = append(want, *m)
					}
				}
				if len(want) == 1 {
					empty++
				} else {
					filled++
				}
				for name, ds := range stores {
					if got := ds.AppendWindows([]nsset.WindowMetrics{prefix}, k, from, to); !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d: %s.AppendWindows(%s, %d, %d) = %+v, want %+v", seed, name, k, from, to, got, want)
					}
				}
			}
			for trial := 0; trial < 25; trial++ {
				check(randomSpan(rng, trial, hole, last))
			}
			// the point probe: every hit, and the miss (or hit) next to it
			for _, m := range full {
				check(m.Window, m.Window)
				check(m.Window-1, m.Window-1)
			}
		}
		if empty == 0 || filled == 0 {
			t.Fatalf("seed %d: %d empty and %d non-empty reads; the property needs both", seed, empty, filled)
		}
	}
}

// wideKeyStores seals three days of one NSSet of nine addresses — a 36-byte
// key, past the 32-byte stack temporary a []byte(k) conversion gets — and
// returns the key with both backends over them, the Set's days already
// open.
func wideKeyStores(tb testing.TB) (nsset.Key, map[string]core.DayStore) {
	tb.Helper()
	addrs := make([]netx.Addr, 9)
	for i := range addrs {
		addrs[i] = netx.Addr(0xC0000200 + uint32(i))
	}
	k := nsset.KeyOf(addrs)
	agg := nsset.NewAggregator()
	for d := clock.Day(0); d < 3; d++ {
		for w := d.FirstWindow(); w < (d + 1).FirstWindow(); w += 3 {
			agg.Add(k, w.Start(), nsset.StatusOK, 20*time.Millisecond)
		}
	}
	dir := tb.TempDir()
	if err := sealDays(dir, agg.Snapshot()); err != nil {
		tb.Fatal(err)
	}
	set, err := Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { set.Close() })
	if err := set.Verify(); err != nil {
		tb.Fatal(err)
	}
	return k, map[string]core.DayStore{"Set": set, "Aggregator": agg}
}

// TestReadsDoNotAllocate: on both backends the by-value baseline and a
// ranged read into a warm buffer — one hour, and three days — allocate
// nothing, whatever the key's length.
func TestReadsDoNotAllocate(t *testing.T) {
	k, stores := wideKeyStores(t)
	hour, all := clock.Day(1).FirstWindow()+100, clock.Day(3).FirstWindow()
	for name, ds := range stores {
		if n := testing.AllocsPerRun(100, func() {
			if b, ok := ds.Baseline(k, 1); !ok || b.Domains != 96 {
				t.Fatalf("%s.Baseline = %+v, %v", name, b, ok)
			}
		}); n != 0 {
			t.Errorf("%s.Baseline allocates %v times", name, n)
		}
		buf := ds.AppendWindows(nil, k, 0, all)
		if len(buf) != 3*96 {
			t.Fatalf("%s.AppendWindows over three days read %d windows, want %d", name, len(buf), 3*96)
		}
		if n := testing.AllocsPerRun(100, func() {
			if buf = ds.AppendWindows(buf[:0], k, hour, hour+11); len(buf) != 4 {
				t.Fatalf("%s.AppendWindows over an hour read %d windows, want 4", name, len(buf))
			}
			buf = ds.AppendWindows(buf[:0], k, 0, all)
		}); n != 0 {
			t.Errorf("%s.AppendWindows into a warm buffer allocates %v times", name, n)
		}
	}
}

// BenchmarkViewReads times the join's two reads on a 36-byte key, on the
// sealed days and (for comparison) on the aggregator they were sealed
// from: the baseline, and the ranged read into a warm buffer over one
// hour and over all three days. 0 allocs/op throughout (make bench-join).
func BenchmarkViewReads(b *testing.B) {
	k, stores := wideKeyStores(b)
	hour, all := clock.Day(1).FirstWindow()+100, clock.Day(3).FirstWindow()
	for _, name := range []string{"Set", "Aggregator"} {
		ds := stores[name]
		buf := ds.AppendWindows(nil, k, 0, all)
		b.Run(name+"/Baseline", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := ds.Baseline(k, 1); !ok {
					b.Fatal("no baseline")
				}
			}
		})
		b.Run(name+"/AppendWindows_1h", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf = ds.AppendWindows(buf[:0], k, hour, hour+11)
			}
		})
		b.Run(name+"/AppendWindows_3d", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf = ds.AppendWindows(buf[:0], k, 0, all)
			}
		})
	}
}

// TestSealDayRejectsForeignRows pins the seal input contract: a window or
// baseline of another day, a duplicate row, or a row out of the order
// nsset.Snapshot documents refuses to seal and writes no file.
func TestSealDayRejectsForeignRows(t *testing.T) {
	w5 := clock.Day(5).FirstWindow()
	win := func(k nsset.Key, w clock.Window) nsset.WindowSnap {
		return nsset.WindowSnap{Key: k, M: nsset.WindowMetrics{Window: w, Domains: 1}}
	}
	base := func(k nsset.Key, d clock.Day) nsset.BaselineSnap {
		return nsset.BaselineSnap{Key: k, B: nsset.DayBaseline{Day: d, Domains: 1}}
	}
	cases := []struct {
		name string
		snap nsset.Snapshot
	}{
		{"foreign_day_window", nsset.Snapshot{Windows: []nsset.WindowSnap{win("a", w5-1)}}},
		{"foreign_day_baseline", nsset.Snapshot{Baselines: []nsset.BaselineSnap{base("a", 4)}}},
		{"duplicate_baseline", nsset.Snapshot{Baselines: []nsset.BaselineSnap{base("a", 5), base("a", 5)}}},
		{"duplicate_window", nsset.Snapshot{Windows: []nsset.WindowSnap{win("a", w5), win("a", w5)}}},
		{"windows_descending_in_key", nsset.Snapshot{Windows: []nsset.WindowSnap{win("a", w5+1), win("a", w5)}}},
		{"keys_descending", nsset.Snapshot{
			Windows:   []nsset.WindowSnap{win("b", w5), win("a", w5)},
			Baselines: []nsset.BaselineSnap{base("a", 5), base("b", 5)},
		}},
		{"baselines_out_of_key_order", nsset.Snapshot{
			Windows:   []nsset.WindowSnap{win("a", w5), win("b", w5)},
			Baselines: []nsset.BaselineSnap{base("b", 5), base("a", 5)},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if _, err := SealDay(dir, 5, tc.snap); err == nil {
				t.Fatal("sealed")
			}
			if left, _ := os.ReadDir(dir); len(left) != 0 {
				t.Fatalf("refused seal left %d files behind", len(left))
			}
		})
	}
	ok := nsset.Snapshot{
		Windows:   []nsset.WindowSnap{win("a", w5), win("a", w5+1), win("c", w5)},
		Baselines: []nsset.BaselineSnap{base("b", 5), base("c", 5)},
	}
	if _, err := SealDay(t.TempDir(), 5, ok); err != nil {
		t.Fatalf("ordered rows refused: %v", err)
	}
}

// TestSealEmptyDay: an empty snapshot seals a valid, openable empty file.
func TestSealEmptyDay(t *testing.T) {
	dir := t.TempDir()
	ref, err := SealDay(dir, 3, nsset.Snapshot{})
	if err != nil {
		t.Fatal(err)
	}
	v, err := OpenDay(filepath.Join(dir, ref.Name), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if v.NumKeys() != 0 {
		t.Fatalf("empty day has %d keys", v.NumKeys())
	}
	if _, ok := v.Baseline("k"); ok {
		t.Fatal("empty day returned a baseline")
	}
}

// OpenDay opens and fully validates the sealed file for day at path, as
// a Set's first read of the day does. Any integrity failure — truncation,
// CRC mismatch, version skew, a header day disagreeing with the expected
// day, out-of-bounds column references — is a typed ErrCorrupt refusal. A
// missing file surfaces as the os error, not corruption.
func OpenDay(path string, day clock.Day) (*view, error) {
	v := new(view)
	if err := v.open(path, day); err != nil {
		return nil, err
	}
	return v, nil
}

// sealOneDay seals a small two-key day and returns the directory, file
// name and content hash.
func sealOneDay(t *testing.T) (dir string, ref SealedFile) {
	t.Helper()
	dir = t.TempDir()
	agg := randomAggregator(rand.New(rand.NewSource(42)), 8, 1)
	ref, err := SealDay(dir, 0, agg.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return dir, ref
}

// restamp recomputes an image's header and body CRCs in place, so damage
// a test (or the fuzzer) made reaches the structural checks behind them.
func restamp(b []byte) []byte {
	binary.BigEndian.PutUint32(b[36:40], crc32.ChecksumIEEE(b[0:36]))
	binary.BigEndian.PutUint32(b[len(b)-trailerLen:], crc32.ChecksumIEEE(b[headerLen:len(b)-trailerLen]))
	return b
}

// craftImage frames body as a day-0 file whose header claims nKeys key
// rows, no baseline or window rows, and strLen string bytes, with valid
// CRCs — what a peer can hand Put.
func craftImage(nKeys uint32, strLen uint64, body []byte) []byte {
	b := make([]byte, headerLen+len(body)+trailerLen)
	copy(b, magic)
	binary.BigEndian.PutUint32(b[8:12], Version)
	binary.BigEndian.PutUint32(b[16:20], nKeys)
	binary.BigEndian.PutUint64(b[28:36], strLen)
	copy(b[headerLen:], body)
	return restamp(b)
}

// strLenWrapImage is a 44-byte frame claiming one key row and 2^64−24
// string bytes: summed as int64 the sections come to exactly 44.
func strLenWrapImage() []byte {
	return craftImage(1, ^uint64(0)-23, nil)
}

// strOffWrapImage has one key row whose string starts at 2^64−2 and is 4
// bytes long, in a 4-byte string table: offset+length wraps to 2.
func strOffWrapImage() []byte {
	body := make([]byte, keyRowLen+4)
	binary.BigEndian.PutUint64(body[0:8], ^uint64(0)-1)
	binary.BigEndian.PutUint32(body[8:12], 4)
	binary.BigEndian.PutUint32(body[12:16], noBaseline)
	return craftImage(1, 4, body)
}

// TestCorruptionRefusal is the typed-refusal table: every way a sealed
// file can be damaged — truncation at each section boundary, bit rot in
// header or body, magic or version skew, a renamed (wrong-day) file, and
// CRC-consistent headers whose lengths wrap the size arithmetic — must
// surface as errors.Is(err, ErrCorrupt), never as garbage data or a
// panic.
func TestCorruptionRefusal(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(b []byte) []byte
	}{
		{"truncated_below_header", func(b []byte) []byte { return b[:headerLen-1] }},
		{"truncated_mid_body", func(b []byte) []byte { return b[:len(b)/2] }},
		{"truncated_last_byte", func(b []byte) []byte { return b[:len(b)-1] }},
		{"header_bit_flip", func(b []byte) []byte { b[16] ^= 0x01; return b }},
		{"body_bit_flip", func(b []byte) []byte { b[headerLen+3] ^= 0x80; return b }},
		{"trailer_bit_flip", func(b []byte) []byte { b[len(b)-1] ^= 0x10; return b }},
		{"bad_magic", func(b []byte) []byte { copy(b, "NOTACOLF"); return b }},
		{"padded", func(b []byte) []byte { return append(b, 0) }},
		{"string_table_length_wraps", func([]byte) []byte { return strLenWrapImage() }},
		{"key_string_offset_wraps", func([]byte) []byte { return strOffWrapImage() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir, ref := sealOneDay(t)
			path := filepath.Join(dir, ref.Name)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			bad := tc.mutate(b)
			if err := os.WriteFile(path, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := OpenDay(path, 0); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("OpenDay error = %v, want ErrCorrupt", err)
			}
			// The same image handed to Put is refused before it is
			// published, leaving the Set empty, and so is it kept in memory.
			inst := t.TempDir()
			published, err := Open(inst)
			if err != nil {
				t.Fatal(err)
			}
			defer published.Close()
			for name, set := range map[string]*Set{"published": published, "in memory": new(Set)} {
				if _, err := set.Put(0, bad); !errors.Is(err, ErrCorrupt) || len(set.slots) != 0 {
					t.Fatalf("Put %s: error = %v (%d days held), want ErrCorrupt", name, err, len(set.slots))
				}
			}
			if left, _ := os.ReadDir(inst); len(left) != 0 {
				t.Fatalf("refused Put left %d files behind", len(left))
			}
			set, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer set.Close()
			if err := set.Verify(); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Verify error = %v, want ErrCorrupt", err)
			}
			// The error-free DayStore accessors panic with the same typed
			// error; supervised runs quarantine it like a poisoned shard.
			func() {
				defer func() {
					r := recover()
					if err, ok := r.(error); !ok || !errors.Is(err, ErrCorrupt) {
						t.Fatalf("accessor panicked with %v, want ErrCorrupt", r)
					}
				}()
				set.Baseline("k", 0)
				t.Fatal("accessor on corrupt day did not panic")
			}()
		})
	}
}

// TestPutMatchesSeal: an image encoded in memory and put into a Set with
// a directory is the byte-identical file a local seal would have written,
// under the same hash, and a Set without one serves it unhashed; an image
// of another day, and a damaged one, is refused with ErrCorrupt and
// writes nothing.
func TestPutMatchesSeal(t *testing.T) {
	snap := randomAggregator(rand.New(rand.NewSource(42)), 8, 1).Snapshot()
	dir, ref := sealOneDay(t)
	image, sum, err := EncodeDay(0, snap)
	if err != nil {
		t.Fatal(err)
	}
	if sum != ref.SHA256 {
		t.Fatalf("EncodeDay hash %s, SealDay hash %s", sum, ref.SHA256)
	}
	inst := t.TempDir()
	set, err := Open(inst)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	got, err := set.Put(0, image)
	if err != nil {
		t.Fatal(err)
	}
	if got != ref {
		t.Fatalf("Put = %+v, SealDay = %+v", got, ref)
	}
	sealed, _ := os.ReadFile(filepath.Join(dir, ref.Name))
	installed, err := os.ReadFile(filepath.Join(inst, got.Name))
	if err != nil || !bytes.Equal(sealed, installed) {
		t.Fatalf("put file differs from the sealed one (err %v)", err)
	}
	var mem Set
	if got, err := mem.Put(0, image); err != nil || got != (SealedFile{Day: 0, Name: ref.Name}) {
		t.Fatalf("Put in memory = %+v, %v; want %s unhashed", got, err, ref.Name)
	}
	damaged := bytes.Clone(image)
	damaged[len(damaged)/2] ^= 0x01
	for _, bad := range []struct {
		day   clock.Day
		image []byte
	}{{7, image}, {0, damaged}} {
		empty := t.TempDir()
		set, err := Open(empty)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := set.Put(bad.day, bad.image); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("putting a bad image as day %d: err = %v, want ErrCorrupt", bad.day, err)
		}
		set.Close()
		if left, _ := os.ReadDir(empty); len(left) != 0 {
			t.Errorf("a refused Put left %v", left)
		}
	}
}

// TestWrongDayRefused: a day file renamed over another day's slot fails
// the header-day check.
func TestWrongDayRefused(t *testing.T) {
	dir, ref := sealOneDay(t)
	moved := filepath.Join(dir, FileName(7))
	if err := os.Rename(filepath.Join(dir, ref.Name), moved); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDay(moved, 7); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("OpenDay error = %v, want ErrCorrupt", err)
	}
	image, err := os.ReadFile(moved)
	if err != nil {
		t.Fatal(err)
	}
	var mem Set
	if _, err := mem.Put(7, image); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Put error = %v, want ErrCorrupt", err)
	}
}

// TestVersionSkewRefused: a future format version (with a valid header
// CRC) is a typed refusal, not a misparse.
func TestVersionSkewRefused(t *testing.T) {
	dir, ref := sealOneDay(t)
	path := filepath.Join(dir, ref.Name)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[11] = byte(Version + 1)
	// valid CRCs, so only the version check can fire
	if err := os.WriteFile(path, restamp(b), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDay(path, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("OpenDay error = %v, want ErrCorrupt", err)
	}
}

// TestVerifyFile: the checkpoint-ref hash check refuses swapped bytes
// with ErrCorrupt and reports a missing file as the os error.
func TestVerifyFile(t *testing.T) {
	dir, ref := sealOneDay(t)
	if err := VerifyFile(dir, ref.Name, ref.SHA256); err != nil {
		t.Fatalf("pristine file failed verification: %v", err)
	}
	path := filepath.Join(dir, ref.Name)
	b, _ := os.ReadFile(path)
	b[headerLen] ^= 0xFF
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := VerifyFile(dir, ref.Name, ref.SHA256); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("swapped file error = %v, want ErrCorrupt", err)
	}
	if err := VerifyFile(dir, "day_000099.dcol", ref.SHA256); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file error = %v, want os.ErrNotExist", err)
	}
}

// TestOpenIgnoresLeftoversAndClear: seal leftovers and foreign files are
// invisible to Open; Clear removes the sealed files and leftovers of the
// days it does not keep, and leaves foreign files alone.
func TestOpenIgnoresLeftoversAndClear(t *testing.T) {
	dir, ref := sealOneDay(t)
	leftover := filepath.Join(dir, ref.Name+".tmp-123456")
	foreign := filepath.Join(dir, "notes.txt")
	for _, p := range []string{leftover, foreign} {
		if err := os.WriteFile(p, []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	set, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Verify opens every day Open listed: a leftover or foreign file taken
	// for a day would be refused as corrupt.
	if err := set.Verify(); err != nil {
		t.Fatalf("Verify = %v; Open listed more than the sealed day", err)
	}
	set.Close()
	kept, err := SealDay(dir, 1, nsset.Snapshot{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Clear(dir, kept.Day); err != nil {
		t.Fatal(err)
	}
	if err := VerifyFile(dir, kept.Name, kept.SHA256); err != nil {
		t.Fatalf("Clear touched a kept day: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, ref.Name)); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("Clear left the sealed file")
	}
	if _, err := os.Stat(leftover); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("Clear left the temp leftover")
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Fatal("Clear removed a foreign file")
	}
}

// TestReseal: sealing the same day again atomically replaces the file and
// the new hash verifies.
func TestReseal(t *testing.T) {
	dir := t.TempDir()
	agg1 := randomAggregator(rand.New(rand.NewSource(1)), 4, 1)
	ref1, err := SealDay(dir, 0, agg1.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	agg2 := randomAggregator(rand.New(rand.NewSource(2)), 6, 1)
	ref2, err := SealDay(dir, 0, agg2.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if ref1.SHA256 == ref2.SHA256 {
		t.Fatal("different worlds sealed to the same hash")
	}
	if err := VerifyFile(dir, ref2.Name, ref2.SHA256); err != nil {
		t.Fatal(err)
	}
}

// TestFileNameRoundTrip: a day's file name is the day zero-padded to six
// characters, a minus sign included, as "day_%06d.dcol" formats it, and
// parses back to the day.
func TestFileNameRoundTrip(t *testing.T) {
	for _, day := range []clock.Day{math.MinInt32, -100000, -12345, -1, 0, 27, 999999, 1000000, math.MaxInt32} {
		name := FileName(day)
		if want := fmt.Sprintf("day_%06d.dcol", int32(day)); name != want {
			t.Errorf("FileName(%d) = %q, want %q", day, name, want)
		}
		if got, ok := parseFileName(name); !ok || got != day {
			t.Errorf("parseFileName(%q) = %d, %v; want %d", name, got, ok, day)
		}
	}
}
