package rsdos

import (
	"fmt"
	"slices"

	"dnsddos/internal/clock"
)

// fold.go is the batch curation's feed order. A Fold links each
// qualifying observation into its window's list as the feed grows — one
// int32 head per window, one int32 link per observation — and folds a
// window through the Tracker once the caller says no later observation
// can land in it: the window's observations ordered by (Victim, feed
// position), the window order then being the global (Window, Victim,
// position) order. That order is a function of the feed alone; no sort
// algorithm's tie handling is part of it. Infer is a Fold taken in one
// step; study.NewSession drives one behind the synthesizer, folding the
// windows its watermark closes while later windows are still drawn.

// Fold curates a growing feed window by window. One goroutine at a time
// may use it.
type Fold struct {
	tr   *Tracker
	feed []WindowObs
	// first is the window of head[0]; the fold takes windows in
	// [first, first+len(head)).
	first clock.Window
	// head holds, per window, 1 + the position of the latest linked
	// observation in it (0: none); link holds, per position, 1 + the
	// position linked before it in its window (0: none).
	head, link []int32
	linked     int          // feed positions below are linked
	closed     clock.Window // windows below are folded
	buf        []int32      // one window's positions, in feed order
}

// NewFold returns an empty fold for a feed whose qualifying observations
// lie in the windows [first, last].
func NewFold(cfg Config, first, last clock.Window) *Fold {
	n := max(0, int64(last-first)+1)
	return &Fold{tr: NewTracker(cfg), first: first, closed: first, head: make([]int32, n)}
}

// Add links the observations feed holds past the ones linked before:
// feed is the whole feed so far, the previous call's feed a prefix of it
// (its elements unchanged). A qualifying observation in a window already
// folded, or outside the fold's windows, panics: the caller's watermark
// was wrong.
func (f *Fold) Add(feed []WindowObs) {
	if len(feed) > len(f.link) {
		// sized once when the caller allocated the feed at its final
		// size
		f.link = slices.Grow(f.link, cap(feed)-len(f.link))[:len(feed)]
	}
	f.feed = feed
	for p := f.linked; p < len(feed); p++ {
		o := &feed[p]
		if !f.tr.Qualifies(o) {
			continue
		}
		i := int64(o.Window - f.first)
		if o.Window < f.closed || i >= int64(len(f.head)) {
			panic(fmt.Sprintf("rsdos: observation %d in window %d, the fold takes [%d, %d)", p, o.Window, f.closed, f.first+clock.Window(len(f.head))))
		}
		f.link[p] = f.head[i]
		f.head[i] = int32(p + 1)
	}
	f.linked = len(feed)
}

// Close folds every window below w: no observation added later may lie
// in one.
func (f *Fold) Close(w clock.Window) {
	w = min(w, f.first+clock.Window(len(f.head)))
	for ; f.closed < w; f.closed++ {
		f.buf = f.buf[:0]
		for p := f.head[f.closed-f.first]; p != 0; p = f.link[p-1] {
			f.buf = append(f.buf, p-1)
		}
		// the list runs from the latest position back; turned round, an
		// insertion sort by victim that moves only past greater victims
		// keeps positions ascending within a victim
		slices.Reverse(f.buf)
		for i := 1; i < len(f.buf); i++ {
			p := f.buf[i]
			v := f.feed[p].Victim
			j := i
			for ; j > 0 && f.feed[f.buf[j-1]].Victim > v; j-- {
				f.buf[j] = f.buf[j-1]
			}
			f.buf[j] = p
		}
		for _, p := range f.buf {
			f.tr.Observe(f.feed[p])
		}
	}
}

// Finish folds the remaining windows and returns the feed numbered by
// (StartWindow, Victim) rank.
func (f *Fold) Finish() []Attack {
	f.Close(f.first + clock.Window(len(f.head)))
	attacks := f.tr.Finish()
	for i := range attacks {
		attacks[i].ID = i + 1
	}
	return attacks
}
