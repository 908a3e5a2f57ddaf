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
// it. A folded window's slots are taken again by later observations, and
// the candidates its close leaves unextendable are finalized and their
// storage taken again by later attacks, so a fold holds the observations
// of its open windows and the attacks still open, not the feed. The
// finished attacks wait in fixed-size chunks until Finish, or go to the
// caller close by close (Finalize). Infer is a Fold closed in one step;
// study.NewSession drives one behind the synthesizer, folding the windows
// its watermark closes while later windows are still drawn; the streaming
// pipeline (internal/stream) drives one over the same feed as it is
// delivered, taking each close's attacks as they finalize.

// slotChunk is how many slots one chunk allocation holds.
const slotChunk = 512

// slotPorts is the port room a slot reserves: the scenario draws at most
// seven ports per component. A longer list grows the slot's own buffer,
// which the slot keeps.
const slotPorts = 7

// doneChunk is how many finished attacks one chunk holds.
const doneChunk = 1024

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
	// buf holds one closing window's slots, latest first; keys holds
	// each one's sort key, Victim<<32 | ^j for the slot at buf[j]
	buf  []int32
	keys []uint64
	// done holds the finished attacks in chunks of doneChunk, in the
	// order they finalized; ndone counts them.
	done  [][]Attack
	ndone int
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
// taken later may lie in one. The candidates no later window can extend
// are finalized, and their storage freed.
func (f *Fold) Close(w clock.Window) {
	f.advance(w)
	for _, a := range f.tr.pending {
		if f.ndone%doneChunk == 0 {
			f.done = append(f.done, make([]Attack, 0, doneChunk))
		}
		c := len(f.done) - 1
		f.done[c] = append(f.done[c], a)
		f.ndone++
	}
	f.tr.pending = f.tr.pending[:0]
}

// Finalize is Close for a caller that numbers the feed itself: it returns
// the attacks this close finalized, sorted by (StartWindow, Victim) within
// the close and with ID 0, instead of keeping them for Finish. The slice
// is the caller's. A close's attacks are not a run of the feed's order: a
// candidate finalizes once the watermark passes its end, so of victim 1
// attacked in windows 10–100 and victim 2 in 50–60, victim 2's attack is
// finalized first although victim 1's starts earlier.
// Finalize(math.MaxInt64) closes every window and finalizes every
// candidate still open.
func (f *Fold) Finalize(w clock.Window) []Attack {
	f.advance(w)
	out := f.tr.pending
	f.tr.pending = nil
	sortAttacks(out)
	return out
}

// Open returns how many attack candidates the fold holds open.
func (f *Fold) Open() int { return len(f.tr.open) }

// advance is Close but for the finished attacks, which it leaves in the
// tracker's pending list.
func (f *Fold) advance(w clock.Window) {
	if w <= f.closed {
		return
	}
	for ; f.lo < w && f.lo <= f.hi; f.lo++ {
		h := &f.heads[f.lo&clock.Window(len(f.heads)-1)]
		f.buf, f.keys = f.buf[:0], f.keys[:0]
		// the list runs from the latest slot back, so ^j grows with
		// arrival and the keys' order is (Victim, arrival): distinct
		// keys, whose order no sort's tie handling can change
		for i := *h; i != 0; i = f.slot(i - 1).next {
			j := uint32(len(f.buf))
			f.buf = append(f.buf, i-1)
			f.keys = append(f.keys, uint64(f.slot(i-1).o.Victim)<<32|uint64(^j))
		}
		*h = 0
		slices.Sort(f.keys)
		for _, k := range f.keys {
			i := f.buf[^uint32(k)]
			s := f.slot(i)
			f.tr.Observe(s.o)
			s.next = f.free
			f.free = i + 1
		}
	}
	f.closed = w
	f.tr.expire(w - 1)
}

// Slots returns how many slots the fold has cut: the most observations it
// has held at once.
func (f *Fold) Slots() int { return int(f.cut) }

// Finish folds the remaining windows and returns the feed numbered by
// (StartWindow, Victim) rank. The attacks finalized in the order their
// windows closed, which is not the feed's (Finalize), so they are copied
// once, the chunks and then the last close's, into a slice of their
// number and sorted there.
func (f *Fold) Finish() []Attack {
	f.advance(math.MaxInt64)
	attacks := make([]Attack, 0, f.ndone+len(f.tr.pending))
	for _, c := range f.done {
		attacks = append(attacks, c...)
	}
	attacks = append(attacks, f.tr.pending...)
	f.done, f.ndone, f.tr.pending = nil, 0, f.tr.pending[:0]
	sortAttacks(attacks)
	for i := range attacks {
		attacks[i].ID = int32(i + 1)
	}
	return attacks
}
