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
	return agg
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
// aggregator store — same keys, days, baselines, window lists, and point
// probes (hits and misses alike).
func TestObservationEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		agg := randomAggregator(rng, 10+rng.Intn(20), 4+rng.Intn(4))
		ref := core.NewAggregatorDayStore(agg)

		dir := t.TempDir()
		if err := sealDays(dir, agg.Snapshot()); err != nil {
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

		if got, want := set.Days(), ref.Days(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: Days = %v, want %v", seed, got, want)
		}
		if got, want := set.Keys(), ref.Keys(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: Keys = %d keys, want %d", seed, len(got), len(want))
		}

		days := ref.Days()
		probeDays := append(append([]clock.Day{}, days...), clock.Day(-1), days[len(days)-1]+1)
		for _, k := range ref.Keys() {
			for _, d := range probeDays {
				gb, wb := set.Baseline(k, d), ref.Baseline(k, d)
				if (gb == nil) != (wb == nil) {
					t.Fatalf("seed %d: Baseline(%s, %d) presence mismatch", seed, k, d)
				}
				if gb != nil && *gb != *wb {
					t.Fatalf("seed %d: Baseline(%s, %d) = %+v, want %+v", seed, k, d, *gb, *wb)
				}
				if bv := set.Baselines(d).Baseline(k); (bv == nil) != (wb == nil) || (bv != nil && *bv != *wb) {
					t.Fatalf("seed %d: Baselines(%d).Baseline(%s) mismatch", seed, d, k)
				}

				gw, ww := set.Series(k).DayWindows(d), ref.Series(k).DayWindows(d)
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
		// unknown key: valid empty series everywhere
		ghost := nsset.KeyOf([]netx.Addr{netx.Addr(1)})
		if set.Baseline(ghost, days[0]) != nil || len(set.Series(ghost).DayWindows(days[0])) != 0 {
			t.Fatalf("seed %d: ghost key not empty", seed)
		}
	}
}

// TestSealDayRejectsForeignRows pins the seal input contract: a window or
// baseline of another day, or a duplicate row, refuses to seal.
func TestSealDayRejectsForeignRows(t *testing.T) {
	w5 := clock.Day(5).FirstWindow()
	base := nsset.Snapshot{
		Windows:   []nsset.WindowSnap{{Key: "k", M: nsset.WindowMetrics{Window: w5, Domains: 1}}},
		Baselines: []nsset.BaselineSnap{{Key: "k", B: nsset.DayBaseline{Day: 5, Domains: 1}}},
	}
	if _, err := SealDay(t.TempDir(), 6, base); err == nil {
		t.Fatal("sealing day 6 with day-5 rows succeeded")
	}
	dup := base
	dup.Baselines = append(dup.Baselines, dup.Baselines[0])
	if _, err := SealDay(t.TempDir(), 5, dup); err == nil {
		t.Fatal("duplicate baseline sealed")
	}
	dupW := base
	dupW.Windows = append(dupW.Windows, dupW.Windows[0])
	if _, err := SealDay(t.TempDir(), 5, dupW); err == nil {
		t.Fatal("duplicate window sealed")
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

// TestCorruptionRefusal is the typed-refusal table: every way a sealed
// file can be damaged — truncation at each section boundary, bit rot in
// header or body, magic or version skew, a renamed (wrong-day) file —
// must surface as errors.Is(err, ErrCorrupt), never as garbage data.
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
				set.Baselines(0)
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
	// re-stamp the header CRC so only the version check can fire
	binary.BigEndian.PutUint32(b[36:40], crc32.ChecksumIEEE(b[0:36]))
	if err := os.WriteFile(path, b, 0o644); err != nil {
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
	if got := set.Days(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("Days = %v, want [0]", got)
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
