package rsdos

import (
	"fmt"
	"math"
	"slices"

	"dnsddos/internal/clock"
)

// fold.go is the batch curation's feed order. A Fold copies each
// qualifying observation it is handed into a slot of its own, linked into
// its window's list in arrival order, and folds a window through the
// Tracker once the caller says no later observation can land in it: the
// window's observations ordered by (Victim, arrival), the window order
// then being the global (Window, Victim, arrival) order. That order is a
// function of the feed alone; no sort algorithm's tie handling is part of
// it. A folded window's slots are taken again by later observations, so a
// fold holds the observations of its open windows, not the feed. Infer is
// a Fold closed in one step; study.NewSession drives one behind the
// synthesizer, folding the windows its watermark closes while later
// windows are still drawn.

// slotChunk is how many slots one chunk allocation holds.
const slotChunk = 512

// slotPorts is the port room a slot reserves: the scenario draws at most
// seven ports per component. A longer list grows the slot's own buffer,
// which the slot keeps.
const slotPorts = 7

// slot is one observation a Fold holds.
type slot struct {
	o WindowObs
	// next is 1 + the slot linked before this one in its window's list,
	// or, for a free slot, 1 + the next free slot (0: none).
	next int32
	// ports backs o.Ports until a longer list outgrows it.
	ports [slotPorts]PortCount
}

// Fold curates a feed window by window. One goroutine at a time may use
// it.
type Fold struct {
	tr *Tracker
	// chunks hold the slots: slot i is chunks[i/slotChunk][i%slotChunk].
	// A chunk never moves, and slots are recycled before a new one is
	// cut, so cut is the most the fold ever held at once.
	chunks [][]slot
	cut    int32
	free   int32 // 1 + the first free slot (0: none)
	// heads is a ring over the windows [lo, hi] that hold slots (none
	// when hi < lo): heads[w&(len-1)] is 1 + the latest slot taken in
	// window w (0: none). Its length is a power of two.
	heads  []int32
	lo, hi clock.Window
	closed clock.Window // windows below are folded
	buf    []int32      // one window's slots, in arrival order
}

// NewFold returns an empty fold.
func NewFold(cfg Config) *Fold {
	return &Fold{tr: NewTracker(cfg), lo: 1, hi: 0, closed: math.MinInt64}
}

// Take copies o into the fold when it qualifies; the fold keeps nothing of
// o itself, Ports included. A qualifying observation in a window already
// closed panics: the caller's watermark was wrong.
func (f *Fold) Take(o *WindowObs) {
	if !f.tr.Qualifies(o) {
		return
	}
	w := o.Window
	if w < f.closed {
		panic(fmt.Sprintf("rsdos: observation in window %d, the fold has closed every window below %d", w, f.closed))
	}
	lo, hi := w, w
	if f.lo <= f.hi {
		lo, hi = min(f.lo, w), max(f.hi, w)
	}
	if uint64(hi-lo) >= uint64(len(f.heads)) {
		f.grow(lo, hi)
	}
	f.lo, f.hi = lo, hi

	i := f.free - 1
	if i >= 0 {
		f.free = f.slot(i).next
	} else {
		if int(f.cut) == len(f.chunks)*slotChunk {
			c := make([]slot, slotChunk)
			for k := range c {
				c[k].o.Ports = c[k].ports[:0]
			}
			f.chunks = append(f.chunks, c)
		}
		i = f.cut
		f.cut++
	}
	s := f.slot(i)
	// the slot's list is reset, not appended to: a recycled slot may
	// hold a longer list than o's
	ports := s.o.Ports[:0]
	s.o = *o
	s.o.Ports = append(ports, o.Ports...)
	h := &f.heads[w&clock.Window(len(f.heads)-1)]
	s.next = *h
	*h = i + 1
}

// grow makes the ring hold the windows [lo, hi], re-placing the lists of
// the windows it held.
func (f *Fold) grow(lo, hi clock.Window) {
	n := 64
	for uint64(n) <= uint64(hi-lo) {
		n *= 2
	}
	heads := make([]int32, n)
	for w := f.lo; w <= f.hi; w++ {
		heads[w&clock.Window(n-1)] = f.heads[w&clock.Window(len(f.heads)-1)]
	}
	f.heads = heads
}

// slot returns slot i.
func (f *Fold) slot(i int32) *slot { return &f.chunks[i/slotChunk][i%slotChunk] }

// Close folds every window below w and frees its slots: no observation
// taken later may lie in one.
func (f *Fold) Close(w clock.Window) {
	for ; f.lo < w && f.lo <= f.hi; f.lo++ {
		h := &f.heads[f.lo&clock.Window(len(f.heads)-1)]
		f.buf = f.buf[:0]
		for i := *h; i != 0; i = f.slot(i - 1).next {
			f.buf = append(f.buf, i-1)
		}
		*h = 0
		// the list runs from the latest slot back; turned round, an
		// insertion sort by victim that moves only past greater victims
		// keeps arrival order within a victim
		slices.Reverse(f.buf)
		for i := 1; i < len(f.buf); i++ {
			p := f.buf[i]
			v := f.slot(p).o.Victim
			j := i
			for ; j > 0 && f.slot(f.buf[j-1]).o.Victim > v; j-- {
				f.buf[j] = f.buf[j-1]
			}
			f.buf[j] = p
		}
		for _, i := range f.buf {
			s := f.slot(i)
			f.tr.Observe(s.o)
			s.next = f.free
			f.free = i + 1
		}
	}
	f.closed = max(f.closed, w)
}

// Slots returns how many slots the fold has cut: the most observations it
// has held at once.
func (f *Fold) Slots() int { return int(f.cut) }

// Finish folds the remaining windows and returns the feed numbered by
// (StartWindow, Victim) rank.
func (f *Fold) Finish() []Attack {
	f.Close(math.MaxInt64)
	attacks := f.tr.Finish()
	for i := range attacks {
		attacks[i].ID = i + 1
	}
	return attacks
}
