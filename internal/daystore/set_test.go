package daystore

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"dnsddos/internal/clock"
)

// TestSetColdOpenRace pins what the Set promises about a day's first
// access: readers released together on a never-opened day all get the
// values a warm Set returns (the file is opened once and shared), a day
// with no file reads as empty, a corrupt day panics with one and the same
// typed error in every reader and stays refused afterwards, and Close
// after a run that opened only some days unmaps just those.
func TestSetColdOpenRace(t *testing.T) {
	const (
		readers = 8
		day     = clock.Day(1)
		noFile  = clock.Day(9)
	)
	agg := randomAggregator(rand.New(rand.NewSource(7)), 12, 3)
	keys := agg.Keys()
	dir := t.TempDir()
	if err := sealDays(dir, agg.Snapshot()); err != nil {
		t.Fatal(err)
	}

	// firstRead is reader g's first touch of the day: a different one of
	// the three DayStore reads per reader, so each accessor opens it cold.
	firstRead := func(s *Set, g int) {
		switch g % 3 {
		case 0:
			s.Baseline(keys[0], day)
		case 1:
			s.DayWindows(keys[0], day)
		case 2:
			s.Window(keys[0], day.FirstWindow())
		}
	}
	race := func(reader func(g int)) {
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < readers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				reader(g)
			}(g)
		}
		close(start)
		wg.Wait()
	}

	warm, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	if err := warm.Verify(); err != nil {
		t.Fatal(err)
	}
	cold, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	race(func(g int) {
		firstRead(cold, g)
		for _, k := range keys {
			gb, wb := cold.Baseline(k, day), warm.Baseline(k, day)
			if (gb == nil) != (wb == nil) || (gb != nil && *gb != *wb) {
				t.Errorf("reader %d: Baseline(%s) = %v, warm read %v", g, k, gb, wb)
			}
			gw, ww := cold.DayWindows(k, day), warm.DayWindows(k, day)
			if len(gw) != len(ww) {
				t.Errorf("reader %d: DayWindows(%s) has %d windows, warm read %d", g, k, len(gw), len(ww))
				continue
			}
			for i := range ww {
				if m := cold.Window(k, ww[i].Window); *gw[i] != *ww[i] || m == nil || *m != *ww[i] {
					t.Errorf("reader %d: window %d of %s differs from the warm read", g, ww[i].Window, k)
				}
			}
			if cold.Baseline(k, noFile) != nil || len(cold.DayWindows(k, noFile)) != 0 || cold.Window(k, noFile.FirstWindow()) != nil {
				t.Errorf("reader %d: a day with no file is not empty for %s", g, k)
			}
		}
	})
	if cold.slots[day].v == nil || cold.slots[day-1].v != nil {
		t.Fatalf("the race read only day %d, but opened=%v and day %d opened=%v",
			day, cold.slots[day].v != nil, day-1, cold.slots[day-1].v != nil)
	}
	if err := cold.Close(); err != nil {
		t.Fatalf("Close with one of three days opened: %v", err)
	}

	path := filepath.Join(dir, FileName(day))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[headerLen] ^= 0x80
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	bad, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	refusals := make([]error, readers)
	race(func(g int) {
		defer func() { refusals[g], _ = recover().(error) }()
		firstRead(bad, g)
	})
	sticky := bad.Verify()
	if !errors.Is(sticky, ErrCorrupt) {
		t.Fatalf("Verify after the race = %v, want ErrCorrupt", sticky)
	}
	for g, err := range refusals {
		if err != sticky {
			t.Errorf("reader %d recovered %v, want the one sticky refusal %v", g, err, sticky)
		}
	}
}
