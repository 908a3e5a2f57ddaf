package study

import (
	"fmt"
	"slices"
	"sort"

	"dnsddos/internal/checkpoint"
	"dnsddos/internal/clock"
	"dnsddos/internal/daystore"
	"dnsddos/internal/obs"
)

// ledger.go is the one day ledger (DESIGN §3.2): for every day of a run it
// decides whether the day is measured, retried or quarantined, and that a
// measured day is journaled, folded into the metrics and counted exactly
// once. The in-process pool (run.go) and the fleet coordinator
// (internal/distjoin) both drive it, so every run mode makes those
// decisions identically. The ledger is passive — no goroutine, lock or
// channel of its own: the pool calls it under its mutex, the coordinator
// from its event loop.

// maxSweepAttempts is the day-sweep attempt limit: a failed day is retried
// once, then quarantined.
const maxSweepAttempts = 2

// Ledger is the day state of one run.
type Ledger struct {
	from, to clock.Day
	journal  *checkpoint.Dir // nil when nothing is journaled
	reg      *obs.Registry
	done     map[clock.Day]daystore.SealedFile
	attempts map[clock.Day]int
	report   RunReport // SkippedDays kept ascending
	err      error     // first write error; refuses every later Complete
}

// OpenJournal opens the checkpoint directory of a run over cfg. The header
// is the configuration hash plus the seed of whatever the journal's
// records replay (the measurement seed for a day ledger, the trace seed
// for a stream cursor); resume requires a matching header, a fresh open
// clears the directory's previous records.
func OpenJournal(dir string, cfg Config, seed uint64, resume bool) (*checkpoint.Dir, error) {
	hash, err := ConfigHash(cfg)
	if err != nil {
		return nil, err
	}
	hdr := checkpoint.Header{ConfigHash: hash, Seed: seed}
	if resume {
		return checkpoint.Resume(dir, hdr)
	}
	return checkpoint.Create(dir, hdr)
}

// OpenLedger opens the ledger of a run over cfg whose sweep metrics fold
// into reg. With a checkpoint directory every completed day is journaled
// as a content-hash reference to its sealed file in dayDir, and resume
// restores the journaled days: each referenced file is re-hashed before
// its day counts as done, and a swapped, rotted or missing one refuses
// the resume (daystore.ErrCorrupt, os.ErrNotExist) — never a silent
// re-sweep. When no day is restored, sealed files and seal leftovers
// already in dayDir are stale state of a previous run and are cleared.
// Both directories are optional; without either, days exist only in the
// caller's memory.
func OpenLedger(cfg Config, reg *obs.Registry, checkpointDir, dayDir string, resume bool) (*Ledger, error) {
	l := &Ledger{
		from: cfg.FromDay, to: cfg.ToDay, reg: reg,
		done:     make(map[clock.Day]daystore.SealedFile),
		attempts: make(map[clock.Day]int),
	}
	if checkpointDir != "" {
		var err error
		if l.journal, err = OpenJournal(checkpointDir, cfg, cfg.MeasureSeed, resume); err != nil {
			return nil, err
		}
	}
	if l.journal != nil && resume {
		refs, err := l.journal.LoadDayRefs(l.from, l.to)
		if err != nil {
			return nil, err
		}
		for d, ref := range refs {
			if err := daystore.VerifyFile(dayDir, ref.File, ref.SHA256); err != nil {
				return nil, fmt.Errorf("study: resuming day %s: %w", d, err)
			}
			l.done[d] = daystore.SealedFile{Day: d, Name: ref.File, SHA256: ref.SHA256}
		}
		l.report.ResumedDays = len(refs)
	}
	if dayDir != "" && len(l.done) == 0 {
		if err := daystore.Clear(dayDir); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// Journal returns the open checkpoint directory (nil without one), for
// records other than days that a run mode journals beside them.
func (l *Ledger) Journal() *checkpoint.Dir { return l.journal }

// Pending lists the days that still need a sweep, ascending. Days a
// previous incarnation quarantined were never journaled, so they are
// pending again — and re-quarantine deterministically.
func (l *Ledger) Pending() []clock.Day {
	var days []clock.Day
	for d := l.from; d <= l.to; d++ {
		if !l.Done(d) && !l.quarantined(d) {
			days = append(days, d)
		}
	}
	return days
}

// Done reports whether day is completed (restored or accepted this run).
func (l *Ledger) Done(day clock.Day) bool {
	_, ok := l.done[day]
	return ok
}

// Settled reports whether every day is either done or quarantined.
func (l *Ledger) Settled() bool {
	return len(l.done)+len(l.report.SkippedDays) == int(l.to-l.from)+1
}

// Attempts returns how many failed attempts day has been charged.
func (l *Ledger) Attempts(day clock.Day) int { return l.attempts[day] }

// Complete accepts a swept day whose sealed file (the zero SealedFile when
// days are kept in memory) is already durable, in the order that keeps a
// crash at any point resumable: journal the reference, then fold the
// day's sweep metrics into the run registry, then count the day. A day
// already done is reported as a duplicate and changes nothing — that is
// what makes the fold exactly-once under redelivery. A day already
// quarantined, or any day after a write error, is refused.
func (l *Ledger) Complete(day clock.Day, file daystore.SealedFile, sweep obs.Snapshot) (dup bool, err error) {
	switch {
	case l.err != nil:
		return false, l.err
	case l.Done(day):
		return true, nil
	case l.quarantined(day):
		return false, fmt.Errorf("study: day %s completed after it was quarantined", day)
	}
	if l.journal != nil {
		if err := l.journal.WriteDayRef(day, checkpoint.DayRef{File: file.Name, SHA256: file.SHA256}); err != nil {
			return false, l.Abort(err)
		}
	}
	l.done[day] = file
	l.reg.ImportSnapshot(sweep)
	l.report.CompletedDays++
	return false, nil
}

// Abort records a failed day write (seal or journal). The first error
// sticks: no later day is journaled, folded or counted.
func (l *Ledger) Abort(err error) error {
	if l.err == nil {
		l.err = err
	}
	return l.err
}

// Err returns the write error the ledger stopped on, if any.
func (l *Ledger) Err() error { return l.err }

// Fail charges day one failed attempt and reports whether to retry it. A
// retryable failure (a panic, a lost worker) is retried until the attempt
// limit; a non-retryable one (the watchdog: re-running a stuck sweep
// doubles the stall) or the last allowed attempt quarantines the day with
// this failure's reason and stack. A failure for a day already done or
// quarantined is ignored.
func (l *Ledger) Fail(day clock.Day, reason, stack string, retryable bool) (retry bool) {
	i, quarantined := l.skippedIndex(day)
	if quarantined || l.Done(day) {
		return false
	}
	l.attempts[day]++
	if retryable && l.attempts[day] < maxSweepAttempts {
		return true
	}
	l.report.SkippedDays = slices.Insert(l.report.SkippedDays, i,
		SkippedDay{Day: day, Reason: reason, Stack: stack, Attempts: l.attempts[day]})
	return false
}

// skippedIndex finds day's position in the ascending quarantine list.
func (l *Ledger) skippedIndex(day clock.Day) (int, bool) {
	sk := l.report.SkippedDays
	i := sort.Search(len(sk), func(i int) bool { return sk[i].Day >= day })
	return i, i < len(sk) && sk[i].Day == day
}

func (l *Ledger) quarantined(day clock.Day) bool {
	_, ok := l.skippedIndex(day)
	return ok
}

// Quarantined returns the quarantined days, ascending.
func (l *Ledger) Quarantined() []clock.Day {
	out := make([]clock.Day, len(l.report.SkippedDays))
	for i := range l.report.SkippedDays {
		out[i] = l.report.SkippedDays[i].Day
	}
	return out
}

// Files lists the done days' sealed files, ascending by day (zero values
// when days are kept in memory).
func (l *Ledger) Files() []daystore.SealedFile {
	files := make([]daystore.SealedFile, 0, len(l.done))
	for d := l.from; d <= l.to; d++ {
		if f, ok := l.done[d]; ok {
			files = append(files, f)
		}
	}
	return files
}

// Report is the run report as of now: the day counts, the quarantine list
// and the registry's stable metric snapshot.
func (l *Ledger) Report() RunReport {
	r := l.report
	snap := l.reg.StableSnapshot()
	r.Metrics = &snap
	return r
}
