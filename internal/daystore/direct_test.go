package daystore

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dnsddos/internal/clock"
	"dnsddos/internal/netx"
	"dnsddos/internal/nsset"
)

// direct_test.go holds the direct encoder (AppendDay, SealTable: the day
// table walked in key order) to the snapshot-fed one (EncodeDay, SealDay),
// which is its oracle: same bytes, same refusals.

// shardedDay builds one measured day the ways a run can: the day's
// records — several NSSets, times in no order, all three statuses — are
// dealt to a few shard aggregators, each record added by key or by ID,
// and the shards are merged in random order into one aggregator. The
// shards share the table the IDs come from (interned in an order that is
// not the key order), except that a seed in four gives one shard a table
// of its own; odd seeds run behind a window filter.
func shardedDay(seed int64, day clock.Day) *nsset.Aggregator {
	rng := rand.New(rand.NewSource(seed))
	tab := new(nsset.Interner)
	keys := make([]nsset.Key, 3+rng.Intn(12))
	ids := make([]nsset.ID, len(keys))
	for _, i := range rng.Perm(len(keys)) {
		keys[i], ids[i] = tab.Intern([]netx.Addr{netx.Addr(0xC0000200 + uint32(i)), netx.Addr(0xC6336400 + uint32(rng.Intn(64)))})
	}
	var filter func(clock.Window) bool
	if seed%2 == 1 {
		filter = func(w clock.Window) bool { return int64(w)%7 < 3 }
	}
	shards := make([]*nsset.Aggregator, 1+rng.Intn(4))
	for i := range shards {
		shards[i] = nsset.NewAggregatorOver(tab)
		if i == 1 && seed%4 == 0 {
			shards[i] = nsset.NewAggregator()
		}
		shards[i].SetWindowFilter(filter)
	}
	for n := 20 + rng.Intn(400); n > 0; n-- {
		ki := rng.Intn(len(keys))
		// a few dozen distinct windows, so shards overlap in most of them
		at := day.Start().Add(time.Duration(rng.Intn(40))*clock.WindowDur + time.Duration(rng.Intn(300))*time.Second)
		status := nsset.QueryStatus(rng.Intn(3))
		rtt := time.Duration(1+rng.Intn(250)) * time.Millisecond
		sh := shards[rng.Intn(len(shards))]
		if sh.Interner() == tab && rng.Intn(2) == 0 {
			sh.AddID(ids[ki], at, status, rtt)
		} else {
			sh.Add(keys[ki], at, status, rtt)
		}
	}
	merged := nsset.NewAggregatorOver(tab)
	merged.SetWindowFilter(filter)
	for _, i := range rng.Perm(len(shards)) {
		merged.Merge(shards[i])
	}
	return merged
}

// TestAppendDayMatchesEncodeDay is the differential property: for
// generated day tables the direct encoder's image is, byte for byte,
// EncodeDay's of the table's Snapshot (so every sealed file's SHA-256 is
// what it was when sealing went through the Snapshot), appended behind
// whatever the buffer already held; and an aggregator that also holds
// another day is refused by both, for either day.
func TestAppendDayMatchesEncodeDay(t *testing.T) {
	prefix := []byte("already in the buffer")
	for seed := int64(1); seed <= 200; seed++ {
		day := clock.Day(seed % 9)
		agg := shardedDay(seed, day)
		want, wantSum, err := EncodeDay(day, agg.Snapshot())
		if err != nil {
			t.Fatalf("seed %d: EncodeDay: %v", seed, err)
		}
		got, gotSum, err := AppendDay(append([]byte(nil), prefix...), day, agg)
		if err != nil {
			t.Fatalf("seed %d: AppendDay: %v", seed, err)
		}
		if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) || gotSum != wantSum {
			t.Fatalf("seed %d: direct image (%d bytes, %s) differs from the snapshot-fed one (%d bytes, %s)",
				seed, len(got)-len(prefix), gotSum, len(want), wantSum)
		}
		if _, err := newView("direct", day, got[len(prefix):], nil); err != nil {
			t.Fatalf("seed %d: direct image does not load: %v", seed, err)
		}

		// one sample of another day makes the aggregator no day-shard
		other := day + 1 + clock.Day(seed%3)
		agg.Add(agg.Keys()[0], other.Start().Add(time.Hour), nsset.StatusOK, time.Millisecond)
		for _, d := range []clock.Day{day, other} {
			_, _, oracleErr := EncodeDay(d, agg.Snapshot())
			image, _, err := AppendDay(prefix, d, agg)
			if oracleErr == nil || err == nil {
				t.Fatalf("seed %d: sealing day %d of an aggregator holding days %d and %d: EncodeDay %v, AppendDay %v",
					seed, d, day, other, oracleErr, err)
			}
			if !bytes.Equal(image, prefix) {
				t.Fatalf("seed %d: refused AppendDay extended the buffer", seed)
			}
		}
	}
}

// TestAppendDayEmpty: an aggregator that measured nothing seals the valid
// empty file an empty snapshot seals.
func TestAppendDayEmpty(t *testing.T) {
	want, _, err := EncodeDay(3, nsset.Snapshot{})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := AppendDay(nil, 3, nsset.NewAggregator())
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("empty aggregator sealed %d bytes (%v), empty snapshot %d", len(got), err, len(want))
	}
}

// TestSealTablePublishesAndReusesBuffer: SealTable writes the file SealDay
// writes, refuses a foreign day without writing, and builds day after day
// in the one buffer it is handed back.
func TestSealTablePublishesAndReusesBuffer(t *testing.T) {
	dir, oracleDir := t.TempDir(), t.TempDir()
	var buf []byte
	for round, seed := range []int64{11, 12, 13} {
		day := clock.Day(round)
		agg := shardedDay(seed, day)
		want, err := SealDay(oracleDir, day, agg.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		held := buf
		var got SealedFile
		if got, buf, err = SealTable(dir, day, agg, buf); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("day %d: SealTable published %+v, SealDay %+v", day, got, want)
		}
		if err := VerifyFile(dir, got.Name, want.SHA256); err != nil {
			t.Fatal(err)
		}
		if cap(held) >= len(buf) && &held[0] != &buf[0] {
			t.Errorf("day %d: image built in a new buffer though the old one had room for it", day)
		}
	}
	agg := shardedDay(14, 7)
	agg.Add(agg.Keys()[0], clock.Day(8).Start(), nsset.StatusOK, time.Millisecond)
	if _, _, err := SealTable(dir, 7, agg, buf); err == nil {
		t.Fatal("an aggregator holding two days was sealed")
	}
	if _, err := os.Stat(filepath.Join(dir, FileName(7))); !os.IsNotExist(err) {
		t.Fatalf("refused seal left a file behind: %v", err)
	}
}

// BenchmarkSealDay encodes one day of the repository benchmark's shape
// (100 NSSets, 1,800 retained windows) both ways: direct, from the day
// table into a reused buffer — the run loops' path — and snapshot-fed, the
// oracle's. B/op is the point: the snapshot and a fresh image per day were
// 42 MB of a sealed study's 99.
func BenchmarkSealDay(b *testing.B) {
	agg := nsset.NewAggregator()
	day := clock.Day(40)
	for k := 0; k < 100; k++ {
		key := nsset.KeyOf([]netx.Addr{netx.Addr(0x51000001 + k), netx.Addr(0x51000101 + k)})
		for w := 0; w < 18; w++ {
			agg.Add(key, day.Start().Add(time.Duration(100+w)*clock.WindowDur), nsset.StatusOK, time.Duration(1+k+w)*time.Millisecond)
		}
	}
	var buf []byte
	for name, encode := range map[string]func() ([]byte, error){
		"direct": func() (image []byte, err error) {
			buf, _, err = AppendDay(buf[:0], day, agg)
			return buf, err
		},
		"snapshot": func() (image []byte, err error) {
			image, _, err = EncodeDay(day, agg.Snapshot())
			return image, err
		},
	} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				image, err := encode()
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(len(image)))
			}
		})
	}
}
