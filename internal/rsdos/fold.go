package rsdos

import (
	"fmt"
	"math"

	"dnsddos/internal/clock"
	"dnsddos/internal/netx"
)

// fold.go is the batch curation's driver. A Fold folds each qualifying
// observation into its victim's open run as it is taken and keeps nothing
// of the observation, and closes the windows below a watermark once the
// caller says no later observation can land in one: the runs no later
// window can extend are finalized, and their storage taken again by later
// runs, so a fold holds the attacks still open, not the feed. The finished
// attacks wait in the fold's one pending list, which Reserve sizes ahead,
// until Finish sorts and numbers it in place, or go to the caller close by
// close (Finalize). The runs themselves are track.go's. Infer is a Fold
// closed in one step; study.NewSession drives one behind the synthesizer,
// closing the windows its watermark passes while later windows are still
// drawn; the streaming pipeline (internal/stream) drives one over the same
// feed as it is delivered, taking each close's attacks as they finalize.

// Fold curates a feed window by window. One goroutine at a time may use
// it.
//
// Observations may arrive in any order; Close closes the windows below a
// watermark, which no later observation may lie in. Finalized attacks
// carry ID 0 until Finish numbers the feed — feed positions are a
// whole-feed property (the streaming pipeline numbers in emission order).
//
// A candidate's storage outlives its run: one finalized by expire, or
// merged into another, goes on a free list, which a new run takes from
// before a slab is cut, so the fold holds the most runs ever open at
// once, not one per attack.
type Fold struct {
	cfg    Config
	closed clock.Window // windows below are closed
	// open maps a victim to its open runs, linked by next, latest first,
	// and back by prev. Their spans are more than MaxGapWindows+1 windows
	// apart: an observation within reach of two merges them.
	open map[netx.Addr]*candidate
	runs int // open runs
	// dues files every open run under the window that expires it, a
	// min-heap by that window; see expire.
	dues []due
	// slab is the chunk new candidates are cut from. A full chunk is left
	// to its candidates and replaced, so a candidate never moves.
	slab []candidate
	cut  int        // candidates cut from slabs
	free *candidate // released candidates, linked by next
	// pending holds the attacks finalized since the fold last handed
	// them over (Finish, Finalize), in the order they finalized.
	pending []Attack
}

// NewFold returns an empty fold with the given curation thresholds.
func NewFold(cfg Config) *Fold {
	return &Fold{cfg: cfg, closed: math.MinInt64, open: make(map[netx.Addr]*candidate)}
}

// Take folds o into the fold when it qualifies; the fold keeps nothing of
// o itself, Ports included. A qualifying observation in a window already
// closed panics: the caller's watermark was wrong.
func (f *Fold) Take(o *WindowObs) {
	if !f.qualifies(o) {
		return
	}
	if o.Window < f.closed {
		panic(fmt.Sprintf("rsdos: observation in window %d, the fold has closed every window below %d", o.Window, f.closed))
	}
	f.take(o)
}

// Close closes every window below w: no observation taken later may lie
// in one. The runs no later window can extend are finalized, their
// attacks kept for Finish and their storage freed.
func (f *Fold) Close(w clock.Window) {
	if w <= f.closed {
		return
	}
	f.closed = w
	f.expire(w - 1)
}

// Reserve makes room for n finished attacks: a fold of up to n attacks,
// closed by Close and Finish, grows no array, and Finish's list then has
// capacity n.
func (f *Fold) Reserve(n int) {
	if n > cap(f.pending) {
		f.pending = append(make([]Attack, 0, n), f.pending...)
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
	out := f.pending
	f.pending = nil
	sortAttacks(out)
	return out
}

// Open returns how many runs the fold holds open.
func (f *Fold) Open() int { return f.runs }

// PeakOpen returns the most runs the fold has held open at once: a
// released run's storage is taken again before a new one is cut.
func (f *Fold) PeakOpen() int { return f.cut }

// Finish closes the remaining windows and returns the feed numbered by
// (StartWindow, Victim) rank. The attacks finalized in the order their
// windows closed, which is not the feed's (Finalize), so they are sorted
// where they wait and the list is handed over: the fold keeps none.
func (f *Fold) Finish() []Attack {
	f.Close(math.MaxInt64)
	attacks := f.pending
	f.pending = nil
	sortAttacks(attacks)
	for i := range attacks {
		attacks[i].ID = int32(i + 1)
	}
	return attacks
}
