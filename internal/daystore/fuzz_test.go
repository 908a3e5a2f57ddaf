package daystore

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"

	"dnsddos/internal/clock"
	"dnsddos/internal/nsset"
)

// unsortedWindowsImage is a sealed day, CRCs valid, in which every key of
// three or more windows has its last two window rows swapped (a, c, b):
// newView accepts it — it checks bounds, not order — and a lower bound
// that finds c is followed by a row below it.
func unsortedWindowsImage(tb testing.TB) []byte {
	image, _, err := EncodeDay(0, randomAggregator(rand.New(rand.NewSource(42)), 8, 1).Snapshot())
	if err != nil {
		tb.Fatal(err)
	}
	v, err := newView("unsorted", 0, image, nil)
	if err != nil {
		tb.Fatal(err)
	}
	swapped := 0
	for i := 0; i < v.NumKeys(); i++ {
		_, _, _, winRow, winCnt := v.keyRow(i)
		if winCnt < 3 {
			continue
		}
		b := v.winCol[(int(winRow)+int(winCnt)-2)*winRowLen:] // aliases image
		var c [winRowLen]byte
		copy(c[:], b[winRowLen:])
		copy(b[winRowLen:2*winRowLen], b)
		copy(b, c[:])
		swapped++
	}
	if swapped == 0 {
		tb.Fatal("no key has three windows to put out of order")
	}
	return restamp(image)
}

// FuzzNewView holds newView to "error, never panic" on bytes a peer can
// send: the harness re-stamps both CRCs, so every mutation reaches the
// size arithmetic and column-bound checks, and an image that is accepted
// must then serve every read of every key row without panicking — the
// ranged read over a fuzzed [from, to] included, which on an accepted image
// whose window rows are in no order may answer anything but a window
// outside the range.
func FuzzNewView(f *testing.F) {
	for _, snap := range []nsset.Snapshot{
		{},
		randomAggregator(rand.New(rand.NewSource(42)), 8, 1).Snapshot(),
	} {
		image, _, err := EncodeDay(0, snap)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(image, int64(100), int64(200))
	}
	f.Add(unsortedWindowsImage(f), int64(0), int64(300))
	f.Add(strLenWrapImage(), int64(0), int64(0))
	f.Add(strOffWrapImage(), int64(math.MinInt64), int64(math.MaxInt64))

	f.Fuzz(func(t *testing.T, image []byte, lo, hi int64) {
		from, to := clock.Window(lo), clock.Window(hi)
		if len(image) >= headerLen+trailerLen {
			image = restamp(bytes.Clone(image)) // the engine's bytes are read-only
		}
		v, err := newView("fuzz", 0, image, nil)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("refusal %v is not ErrCorrupt", err)
			}
			return
		}
		// read is one ranged read; whatever it answers lies in the range.
		read := func(k nsset.Key, from, to clock.Window) []nsset.WindowMetrics {
			wins := v.AppendWindows(nil, k, from, to)
			for _, m := range wins {
				if m.Window < from || m.Window > to {
					t.Fatalf("AppendWindows(%q, %d, %d) answered window %d", k, from, to, m.Window)
				}
			}
			return wins
		}
		for i := 0; i < v.NumKeys(); i++ {
			k := v.Key(i)
			v.Baseline(k)
			read(k, from, to)
			for _, m := range read(k, math.MinInt64, math.MaxInt64) {
				read(k, m.Window, m.Window)
			}
		}
	})
}
