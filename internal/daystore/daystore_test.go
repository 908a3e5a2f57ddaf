package daystore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
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
	for ki := 0; ki < nKeys; ki++ {
		k := nsset.KeyOf([]netx.Addr{netx.Addr(0xC0000200 + uint32(ki)), netx.Addr(0xC6336400 + uint32(rng.Intn(64)))})
		for d := 0; d < nDays; d++ {
			if rng.Intn(4) == 0 { // key absent this day
				continue
			}
			day := clock.Day(d)
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

// TestObservationEquivalence is the property test pinning the DayStore
// contract: a snapshot sealed through the columnar writer and read back
// through mmap views must be observationally identical to the live
// aggregator store — same keys, baselines, window lists, and point probes
// (hits and misses alike). Seed 6 runs behind a window filter that
// rejects every window of most keys: a baseline-only NSSet is in both
// backends' Keys().
func TestObservationEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		agg := nsset.NewAggregator()
		if seed == 6 {
			agg.SetWindowFilter(func(w clock.Window) bool { return int64(w)%clock.WindowsPerDay < 6 })
		}
		fillRandom(agg, rng, 10+rng.Intn(20), 4+rng.Intn(4))
		ref := core.DayStore(agg)

		dir := t.TempDir()
		snap := agg.Snapshot()
		if err := sealDays(dir, snap); err != nil {
			t.Fatalf("seed %d: sealing: %v", seed, err)
		}
		set, err := Open(dir)
		if err != nil {
			t.Fatalf("seed %d: Open: %v", seed, err)
		}
		defer set.Close()
		if err := set.Verify(); err != nil {
			t.Fatalf("seed %d: Verify: %v", seed, err)
		}

		keys := agg.Keys()
		if got := set.Keys(); !reflect.DeepEqual(got, keys) {
			t.Fatalf("seed %d: Keys = %d keys, want %d", seed, len(got), len(keys))
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

		lastDay := clock.Day(0)
		for _, bs := range snap.Baselines {
			lastDay = max(lastDay, bs.B.Day)
		}
		for _, k := range keys {
			for d := clock.Day(-1); d <= lastDay+1; d++ {
				gb, wb := set.Baseline(k, d), ref.Baseline(k, d)
				if (gb == nil) != (wb == nil) {
					t.Fatalf("seed %d: Baseline(%s, %d) presence mismatch", seed, k, d)
				}
				if gb != nil && *gb != *wb {
					t.Fatalf("seed %d: Baseline(%s, %d) = %+v, want %+v", seed, k, d, *gb, *wb)
				}

				gw, ww := set.DayWindows(k, d), ref.DayWindows(k, d)
				if len(gw) != len(ww) {
					t.Fatalf("seed %d: DayWindows(%s, %d) has %d windows, want %d", seed, k, d, len(gw), len(ww))
				}
				for i := range gw {
					if *gw[i] != *ww[i] {
						t.Fatalf("seed %d: DayWindows(%s, %d)[%d] = %+v, want %+v", seed, k, d, i, *gw[i], *ww[i])
					}
					// point probe on a hit, and on the adjacent miss
					if m := set.Window(k, gw[i].Window); m == nil || *m != *ww[i] {
						t.Fatalf("seed %d: Window(%s, %d) mismatch", seed, k, gw[i].Window)
					}
				}
				pw := d.FirstWindow() - 1 // last window of the previous day: hit or miss, must agree
				gm, wm := set.Window(k, pw), ref.Window(k, pw)
				if (gm == nil) != (wm == nil) || (gm != nil && *gm != *wm) {
					t.Fatalf("seed %d: Window(%s, %d) = %v, want %v", seed, k, pw, gm, wm)
				}
			}
		}
		// unknown key: valid empty reads everywhere
		ghost := nsset.KeyOf([]netx.Addr{netx.Addr(1)})
		if set.Baseline(ghost, 0) != nil || len(set.DayWindows(ghost, 0)) != 0 {
			t.Fatalf("seed %d: ghost key not empty", seed)
		}
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
	if v.Baseline("k") != nil {
		t.Fatal("empty day returned a baseline")
	}
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
// CRCs — what a peer can send Install together with its own hash.
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
			// The same image arriving from a peer is refused before it is
			// published — under the announced hash, and also when the hash
			// was computed over the damaged bytes (only the structural
			// checks can fire then).
			sum := sha256.Sum256(bad)
			for _, hash := range []string{ref.SHA256, hex.EncodeToString(sum[:])} {
				inst := t.TempDir()
				if _, err := Install(inst, 0, bad, hash); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("Install error = %v, want ErrCorrupt", err)
				}
				if left, _ := os.ReadDir(inst); len(left) != 0 {
					t.Fatalf("refused Install left %d files behind", len(left))
				}
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

// TestInstallMatchesSeal: an image encoded in memory and installed
// elsewhere is the byte-identical file a local seal would have written,
// under the same hash.
func TestInstallMatchesSeal(t *testing.T) {
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
	got, err := Install(inst, 0, image, sum)
	if err != nil {
		t.Fatal(err)
	}
	if got != ref {
		t.Fatalf("Install = %+v, SealDay = %+v", got, ref)
	}
	sealed, _ := os.ReadFile(filepath.Join(dir, ref.Name))
	installed, err := os.ReadFile(filepath.Join(inst, got.Name))
	if err != nil || !bytes.Equal(sealed, installed) {
		t.Fatalf("installed file differs from the sealed one (err %v)", err)
	}
	if _, err := Install(t.TempDir(), 7, image, sum); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("installing day 0's image as day 7: err = %v, want ErrCorrupt", err)
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
// invisible to Open; Clear removes sealed files and leftovers but leaves
// foreign files alone.
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
	if err := Clear(dir); err != nil {
		t.Fatal(err)
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
