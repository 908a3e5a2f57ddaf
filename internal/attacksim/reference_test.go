package attacksim

import (
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"dnsddos/internal/clock"
)

// activeInReference is ActiveIn as it was before it worked in Unix
// nanoseconds: the window's two time.Times built per call and compared
// with Before/After. The load oracles in simnet and scenario call the
// production WindowLoad, so they cannot see an ActiveIn defect; this one
// can.
func activeInReference(s *Spec, w clock.Window) (float64, bool) {
	ws, we := w.Start(), w.End()
	if !s.Start.Before(we) || !s.End.After(ws) {
		return 0, false
	}
	from := ws
	if s.Start.After(from) {
		from = s.Start
	}
	to := we
	if s.End.Before(to) {
		to = s.End
	}
	return float64(to.Sub(from)) / float64(clock.WindowDur), true
}

// TestActiveInMatchesReference holds ActiveIn to the time.Time body, bit
// for bit, on random specs whose ends sit on window edges, a nanosecond
// either side of them, or anywhere; with zero and negative durations; from
// before StudyStart to past StudyEnd; in a zone other than UTC — at every
// window from two before the spec's first to two after its last.
func TestActiveInMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(25, 25))
	zone := time.FixedZone("UTC+3", 3*3600)
	// an instant near a window edge: on it, a nanosecond off, or anywhere
	// in the window
	near := func(w clock.Window) time.Time {
		at := w.Start()
		switch rng.IntN(4) {
		case 0:
		case 1:
			at = at.Add(-time.Nanosecond)
		case 2:
			at = at.Add(time.Nanosecond)
		default:
			at = at.Add(time.Duration(rng.Int64N(int64(clock.WindowDur))))
		}
		if rng.IntN(5) == 0 {
			at = at.In(zone)
		}
		return at
	}
	windows := clock.Window(clock.StudyWindows())
	checked, active := 0, 0
	for i := 0; i < 20000; i++ {
		w0 := clock.Window(rng.Int64N(int64(windows)+4000)) - 2000 // from a week before StudyStart
		var s Spec
		s.Start = near(w0)
		switch rng.IntN(5) {
		case 0:
			s.End = s.Start // zero duration
		case 1:
			s.End = s.Start.Add(-time.Duration(1 + rng.Int64N(int64(time.Hour)))) // negative
		case 2:
			s.End = near(w0 + clock.Window(rng.IntN(3))) // within a window or two
		default:
			s.End = near(w0 + clock.Window(rng.IntN(300)))
		}
		first, last := clock.WindowOf(s.Start), clock.WindowOf(s.End)
		for w := min(first, last) - 2; w <= max(first, last)+2; w++ {
			got, gotOK := s.ActiveIn(w)
			want, wantOK := activeInReference(&s, w)
			if gotOK != wantOK || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("spec [%v, %v) window %v: ActiveIn %v, %v; reference %v, %v", s.Start, s.End, w, got, gotOK, want, wantOK)
			}
			checked++
			if wantOK {
				active++
			}
		}
	}
	if active*10 < checked {
		t.Errorf("only %d of %d probed windows were active", active, checked)
	}
}
