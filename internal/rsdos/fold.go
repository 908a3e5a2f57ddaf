package rsdos

import (
	"fmt"
	"math"

	"dnsddos/internal/clock"
)

// fold.go is the batch curation's driver. A Fold hands each qualifying
// observation to its Tracker as it is taken, which folds it into its
// victim's open run and keeps nothing of the observation, and closes the
// windows below a watermark once the caller says no later observation can
// land in one: the runs no later window can extend are finalized, and
// their storage taken again by later runs, so a fold holds the attacks
// still open, not the feed. The finished attacks wait in fixed-size
// chunks until Finish, or go to the caller close by close (Finalize).
// Infer is a Fold closed in one step; study.NewSession drives one behind
// the synthesizer, closing the windows its watermark passes while later
// windows are still drawn; the streaming pipeline (internal/stream)
// drives one over the same feed as it is delivered, taking each close's
// attacks as they finalize.

// doneChunk is how many finished attacks one chunk holds.
const doneChunk = 1024

// Fold curates a feed window by window. One goroutine at a time may use
// it.
type Fold struct {
	tr     *Tracker
	closed clock.Window // windows below are closed
	// done holds the finished attacks in chunks of doneChunk, in the
	// order they finalized; ndone counts them.
	done  [][]Attack
	ndone int
}

// NewFold returns an empty fold.
func NewFold(cfg Config) *Fold {
	return &Fold{tr: NewTracker(cfg), closed: math.MinInt64}
}

// Take folds o into the fold when it qualifies; the fold keeps nothing of
// o itself, Ports included. A qualifying observation in a window already
// closed panics: the caller's watermark was wrong.
func (f *Fold) Take(o *WindowObs) {
	if !f.tr.Qualifies(o) {
		return
	}
	if o.Window < f.closed {
		panic(fmt.Sprintf("rsdos: observation in window %d, the fold has closed every window below %d", o.Window, f.closed))
	}
	f.tr.take(o)
}

// Close closes every window below w: no observation taken later may lie
// in one. The runs no later window can extend are finalized, and their
// storage freed.
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
// run finalizes once the watermark passes its end, so of victim 1
// attacked in windows 10–100 and victim 2 in 50–60, victim 2's attack is
// finalized first although victim 1's starts earlier.
// Finalize(math.MaxInt64) closes every window and finalizes every run
// still open.
func (f *Fold) Finalize(w clock.Window) []Attack {
	f.advance(w)
	out := f.tr.pending
	f.tr.pending = nil
	sortAttacks(out)
	return out
}

// Open returns how many runs the fold holds open.
func (f *Fold) Open() int { return f.tr.runs }

// PeakOpen returns the most runs the fold has held open at once: a
// released run's storage is taken again before a new one is cut.
func (f *Fold) PeakOpen() int { return f.tr.cut }

// advance is Close but for the finished attacks, which it leaves in the
// tracker's pending list. A run finalizes in the close it would if the
// windows were taken in order: one the watermark passes by more than
// MaxGapWindows holds no window at or above it.
func (f *Fold) advance(w clock.Window) {
	if w <= f.closed {
		return
	}
	f.closed = w
	f.tr.expire(w - 1)
}

// Finish closes the remaining windows and returns the feed numbered by
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
