package daystore

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
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

	// firstRead is reader g's first touch of the day: one of the two
	// DayStore reads, alternating, so each accessor opens it cold.
	dayFirst, dayLast := day.FirstWindow(), (day+1).FirstWindow()-1
	firstRead := func(s *Set, g int) {
		if g%2 == 0 {
			s.Baseline(keys[0], day)
		} else {
			s.AppendWindows(nil, keys[0], dayFirst, dayLast)
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
			gb, gok := cold.Baseline(k, day)
			if wb, wok := warm.Baseline(k, day); gok != wok || gb != wb {
				t.Errorf("reader %d: Baseline(%s) = %v, %v, warm read %v, %v", g, k, gb, gok, wb, wok)
			}
			gw, ww := cold.AppendWindows(nil, k, dayFirst, dayLast), warm.AppendWindows(nil, k, dayFirst, dayLast)
			if !reflect.DeepEqual(gw, ww) {
				t.Errorf("reader %d: AppendWindows(%s) = %+v, warm read %+v", g, k, gw, ww)
			}
			if _, ok := cold.Baseline(k, noFile); ok || len(cold.AppendWindows(nil, k, noFile.FirstWindow(), (noFile+1).FirstWindow())) != 0 {
				t.Errorf("reader %d: a day with no file is not empty for %s", g, k)
			}
		}
	})
	if !cold.opened(day) || cold.opened(day-1) {
		t.Fatalf("the race read only day %d, but opened=%v and day %d opened=%v",
			day, cold.opened(day), day-1, cold.opened(day-1))
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

// TestPutReplacesDay: the zero Set reads as an empty store, and a second
// Put of a day held replaces the first, in memory and in a directory,
// whose file it publishes again.
func TestPutReplacesDay(t *testing.T) {
	var mem Set
	if _, ok := mem.Baseline("k", 0); ok || len(mem.AppendWindows(nil, "k", 0, clock.Day(1).FirstWindow())) != 0 {
		t.Fatal("the zero Set is not empty")
	}
	dir := t.TempDir()
	published, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer published.Close()
	first, err := AppendDay(nil, 0, randomAggregator(rand.New(rand.NewSource(3)), 6, 1))
	if err != nil {
		t.Fatal(err)
	}
	agg := randomAggregator(rand.New(rand.NewSource(4)), 4, 1)
	second, err := AppendDay(nil, 0, agg)
	if err != nil {
		t.Fatal(err)
	}
	for name, set := range map[string]*Set{"in memory": &mem, "published": published} {
		for _, image := range [][]byte{first, second} {
			if _, err := set.Put(0, image); err != nil {
				t.Fatal(err)
			}
		}
		if got, want := set.Keys(), agg.Keys(); len(want) == 0 || !reflect.DeepEqual(got, want) || len(set.slots) != 1 {
			t.Errorf("%s: after the second Put the Set holds %d days and keys %v, want one day and %v", name, len(set.slots), got, want)
		}
	}
	if err := VerifyFile(dir, FileName(0), ContentHash(second)); err != nil {
		t.Errorf("the second Put was not published: %v", err)
	}
}

// heldDays returns the days s holds, ascending.
func (s *Set) heldDays() []clock.Day {
	days := make([]clock.Day, len(s.slots))
	for i, sl := range s.slots {
		days[i] = sl.day
	}
	return days
}

// opened reports whether day d's view has been opened.
func (s *Set) opened(d clock.Day) bool {
	i, found := s.find(d)
	return found && s.slots[i].v.data != nil
}
