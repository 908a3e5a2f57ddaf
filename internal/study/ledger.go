package study

import (
	"errors"
	"fmt"

	"dnsddos/internal/atomicfile"
	"dnsddos/internal/checkpoint"
	"dnsddos/internal/clock"
	"dnsddos/internal/daystore"
	"dnsddos/internal/obs"
)

// ledger.go is the one day ledger (DESIGN §3.2): for every day of a run it
// decides whether the day is measured, retried or quarantined, and that a
// measured day is journaled, folded into the metrics and counted exactly
// once. The run loop (run.go) is its one driver. The ledger is passive —
// no goroutine, lock or channel of its own: the run loop's workers call
// it under one mutex.

// maxSweepAttempts is the day-sweep attempt limit: a failed day is retried
// once, then quarantined.
const maxSweepAttempts = 2

// dayLedger is the day state of one run.
type dayLedger struct {
	from    clock.Day
	state   []dayState      // one record a day of the run, indexed by day - from
	journal *checkpoint.Dir // nil when nothing is journaled
	dayDir  string          // where sealed days are published; "" keeps them in memory
	days    *atomicfile.Dir // dayDir, held open for publishing; nil without it
	reg     *obs.Registry
	report  RunReport // the day counts; Report adds the quarantine list
	err     error     // first write error; refuses every later Complete
}

// dayState is the ledger's one record of a day.
type dayState struct {
	done        bool
	file        daystore.SealedFile // once done; the zero SealedFile when days are kept in memory
	restored    bool                // done by restore, not swept this run
	latest      string              // hash of the day's latest journaled reference
	attempts    int
	quarantined bool
	reason      string // the quarantining failure's reason and stack
	stack       string
}

// OpenJournal opens the checkpoint directory of a run over cfg. The header
// is the configuration hash plus the seed of whatever the journal's
// records replay (the measurement seed for a day ledger, the feed's
// synthesis seed for a stream cursor); resume requires a matching header, a fresh open
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

// openLedger opens the ledger of a run over cfg whose sweep counts fold
// into reg. With a checkpoint directory every completed day is journaled
// as a content-hash reference to its sealed file in dayDir, and resume
// restores the journaled days: each referenced file is re-hashed before
// its day counts as done, and a swapped, rotted or missing one refuses
// the resume (daystore.ErrCorrupt, os.ErrNotExist) — never a silent
// re-sweep. When no day is restored, sealed files and seal leftovers
// already in dayDir are stale state of a previous run and are cleared.
// Both directories are optional; without either, days exist only in the
// caller's memory. The caller closes the ledger when the run is over.
func openLedger(cfg Config, reg *obs.Registry, checkpointDir, dayDir string, resume bool) (*dayLedger, error) {
	l := &dayLedger{
		from: cfg.FromDay, state: make([]dayState, cfg.ToDay-cfg.FromDay+1),
		dayDir: dayDir, reg: reg,
	}
	if checkpointDir != "" {
		var err error
		if l.journal, err = OpenJournal(checkpointDir, cfg, cfg.MeasureSeed, resume); err != nil {
			return nil, err
		}
	}
	err := l.restore(dayDir, resume)
	if err == nil && dayDir != "" {
		l.days, err = atomicfile.OpenDir(dayDir)
	}
	if err != nil {
		l.Close()
		return nil, err
	}
	return l, nil
}

// restore marks the journaled days done on a resume, and clears dayDir
// when no day was restored. A day journaled more than once (Reseal) is
// restored from its latest reference that its file verifies against: a
// run killed between journaling a re-seal and publishing it left the
// file of the reference before, and Finish re-seals the day again.
func (l *dayLedger) restore(dayDir string, resume bool) error {
	if l.journal != nil && resume {
		refs, err := l.journal.LoadDayRefs(l.from, l.from+clock.Day(len(l.state)-1))
		if err != nil {
			return err
		}
		for d, dayRefs := range refs {
			ref, err := verifyLatest(dayDir, dayRefs)
			if err != nil {
				return fmt.Errorf("study: resuming day %s: %w", d, err)
			}
			*l.at(d) = dayState{
				done: true, restored: true,
				file:   daystore.SealedFile{Day: d, Name: ref.File, SHA256: ref.SHA256},
				latest: dayRefs[len(dayRefs)-1].SHA256,
			}
		}
		l.report.ResumedDays = len(refs)
	}
	if dayDir != "" && l.report.ResumedDays == 0 {
		return daystore.Clear(dayDir)
	}
	return nil
}

// verifyLatest returns the latest of one day's references, in log order,
// that the day's file in dayDir verifies against, or the latest one's
// refusal when none does.
func verifyLatest(dayDir string, refs []checkpoint.DayRef) (checkpoint.DayRef, error) {
	var latest error
	for i := len(refs) - 1; i >= 0; i-- {
		err := daystore.VerifyFile(dayDir, refs[i].File, refs[i].SHA256)
		if err == nil {
			return refs[i], nil
		}
		if latest == nil {
			latest = err
		}
	}
	return checkpoint.DayRef{}, latest
}

// Close releases the journal and the day directory once the run has
// accepted its last day.
func (l *dayLedger) Close() error {
	var journalErr, daysErr error
	if l.journal != nil {
		journalErr = l.journal.Close()
	}
	if l.days != nil {
		daysErr = l.days.Close()
	}
	return errors.Join(journalErr, daysErr)
}

// Pending lists the days that still need a sweep, ascending. Days a
// previous incarnation quarantined were never journaled, so they are
// pending again — and re-quarantine deterministically.
func (l *dayLedger) Pending() []clock.Day {
	var days []clock.Day
	for i, st := range l.state {
		if !st.done && !st.quarantined {
			days = append(days, l.from+clock.Day(i))
		}
	}
	return days
}

// at is day's record.
func (l *dayLedger) at(day clock.Day) *dayState { return &l.state[day-l.from] }

// Done reports whether day is completed (restored or accepted this run).
func (l *dayLedger) Done(day clock.Day) bool { return l.at(day).done }

// Complete accepts a swept day whose sealed file (the zero SealedFile when
// days are kept in memory) is already durable, in the order that keeps a
// crash at any point resumable: journal the reference, then fold the
// day's sweep counts into the run registry, then count the day. A day
// already done or quarantined, or any day after a write error, is
// refused: each day's counts fold exactly once.
func (l *dayLedger) Complete(day clock.Day, file daystore.SealedFile, counts sweepCounts) error {
	st := l.at(day)
	switch {
	case l.err != nil:
		return l.err
	case st.done:
		return fmt.Errorf("study: day %s completed twice", day)
	case st.quarantined:
		return fmt.Errorf("study: day %s completed after it was quarantined", day)
	}
	if l.journal != nil {
		if err := l.journal.WriteDayRef(day, checkpoint.DayRef{File: file.Name, SHA256: file.SHA256}); err != nil {
			return l.Abort(err)
		}
		st.latest = file.SHA256
	}
	st.done, st.file = true, file
	counts.fold(l.reg)
	l.report.CompletedDays++
	return nil
}

// Reseal accepts the second sweep of a done day (Study.finish widens the
// demand of a quarantine's fallback day): image is the day's new sealed
// file, base the counts of the records the day's first sweep made again
// — Skipped being every domain neither sweep measures — and extra those
// of the records the widened demand added. It journals the image's
// reference unless the day's latest reference is already the image's,
// then publishes the image in the day directory unless the day's file
// already is it — in that order, so that a crash between the two leaves
// the previous reference for restore to verify the old file against —
// then folds the counts exactly once: the extra records, taken off the
// day's skipped count, when this run swept the day, and both when the day
// was restored, so that the run's outcome counters and skipped add up to
// the domains times the days it swept.
func (l *dayLedger) Reseal(day clock.Day, image []byte, base, extra sweepCounts) error {
	st := l.at(day)
	switch {
	case l.err != nil:
		return l.err
	case !st.done:
		return fmt.Errorf("study: day %s re-sealed before it was done", day)
	}
	file := daystore.SealedFile{Day: day, Name: daystore.FileName(day), SHA256: daystore.ContentHash(image)}
	if l.journal != nil && st.latest != file.SHA256 {
		if err := l.journal.WriteDayRef(day, checkpoint.DayRef{File: file.Name, SHA256: file.SHA256}); err != nil {
			return l.Abort(err)
		}
		st.latest = file.SHA256
	}
	if l.dayDir != "" && st.file != file {
		if _, err := daystore.Install(l.dayDir, day, image, file.SHA256); err != nil {
			return l.Abort(err)
		}
	}
	st.file = file
	if st.restored {
		base.fold(l.reg)
	} else {
		extra.Skipped = -extra.measured()
	}
	extra.fold(l.reg)
	return nil
}

// Abort records a failed day write (seal or journal). The first error
// sticks: no later day is journaled, folded or counted.
func (l *dayLedger) Abort(err error) error {
	if l.err == nil {
		l.err = err
	}
	return l.err
}

// Err returns the write error the ledger stopped on, if any.
func (l *dayLedger) Err() error { return l.err }

// Fail charges day one failed attempt and reports whether to retry it. A
// retryable failure (a panic, a lost worker) is retried until the attempt
// limit; a non-retryable one (the watchdog: re-running a stuck sweep
// doubles the stall) or the last allowed attempt quarantines the day with
// this failure's reason and stack. A failure for a day already done or
// quarantined is ignored.
func (l *dayLedger) Fail(day clock.Day, reason, stack string, retryable bool) (retry bool) {
	st := l.at(day)
	if st.quarantined || st.done {
		return false
	}
	st.attempts++
	if retryable && st.attempts < maxSweepAttempts {
		return true
	}
	st.quarantined, st.reason, st.stack = true, reason, stack
	return false
}

// Quarantined returns the quarantined days, ascending.
func (l *dayLedger) Quarantined() []clock.Day {
	var out []clock.Day
	for i := range l.state {
		if l.state[i].quarantined {
			out = append(out, l.from+clock.Day(i))
		}
	}
	return out
}

// Report is the run report as of now: the day counts, the quarantine list
// and the registry's stable metric snapshot.
func (l *dayLedger) Report() RunReport {
	r := l.report
	for i, st := range l.state {
		if st.quarantined {
			r.SkippedDays = append(r.SkippedDays,
				SkippedDay{Day: l.from + clock.Day(i), Reason: st.reason, Stack: st.stack, Attempts: st.attempts})
		}
	}
	snap := l.reg.StableSnapshot()
	r.Metrics = &snap
	return r
}
