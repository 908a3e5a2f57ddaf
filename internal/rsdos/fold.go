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
// still open, not the feed. The finished attacks wait in the tracker's
// one pending list, which Reserve sizes ahead, until Finish sorts and
// numbers it in place, or go to the caller close by close (Finalize).
// Infer is a Fold closed in one step; study.NewSession drives one behind
// the synthesizer, closing the windows its watermark passes while later
// windows are still drawn; the streaming pipeline (internal/stream)
// drives one over the same feed as it is delivered, taking each close's
// attacks as they finalize.

// Fold curates a feed window by window. One goroutine at a time may use
// it.
type Fold struct {
	tr     *Tracker
	closed clock.Window // windows below are closed
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
// in one. The runs no later window can extend are finalized, their
// attacks kept for Finish and their storage freed.
func (f *Fold) Close(w clock.Window) {
	if w <= f.closed {
		return
	}
	f.closed = w
	f.tr.expire(w - 1)
}

// Reserve makes room for n finished attacks: a fold of up to n attacks,
// closed by Close and Finish, grows no array, and Finish's list then has
// capacity n.
func (f *Fold) Reserve(n int) {
	if n > cap(f.tr.pending) {
		f.tr.pending = append(make([]Attack, 0, n), f.tr.pending...)
	}
}

// Finalize is Close for a caller that numbers the feed itself: it returns
// the attacks finalized since the fold last handed any over, sorted by
// (StartWindow, Victim) within the close and with ID 0, instead of
// keeping them for Finish. The slice is the caller's. A close's attacks
// are not a run of the feed's order: a run finalizes once the watermark
// passes its end, so of victim 1 attacked in windows 10–100 and victim 2
// in 50–60, victim 2's attack is finalized first although victim 1's
// starts earlier.
// Finalize(math.MaxInt64) closes every window and finalizes every run
// still open.
func (f *Fold) Finalize(w clock.Window) []Attack {
	f.Close(w)
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

// Finish closes the remaining windows and returns the feed numbered by
// (StartWindow, Victim) rank. The attacks finalized in the order their
// windows closed, which is not the feed's (Finalize), so they are sorted
// where they wait and the list is handed over: the fold keeps none.
func (f *Fold) Finish() []Attack {
	f.Close(math.MaxInt64)
	attacks := f.tr.pending
	f.tr.pending = nil
	sortAttacks(attacks)
	for i := range attacks {
		attacks[i].ID = int32(i + 1)
	}
	return attacks
}
