package study

import (
	"errors"
	"fmt"
	"slices"
	"sort"

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
	from, to clock.Day
	journal  *checkpoint.Dir // nil when nothing is journaled
	dayDir   string          // where sealed days are published; "" keeps them in memory
	days     *atomicfile.Dir // dayDir, held open for publishing; nil without it
	reg      *obs.Registry
	done     map[clock.Day]daystore.SealedFile
	restored map[clock.Day]bool   // done days this run restored, not swept
	latest   map[clock.Day]string // hash of each journaled day's latest reference
	attempts map[clock.Day]int
	report   RunReport // SkippedDays kept ascending
	err      error     // first write error; refuses every later Complete
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
		from: cfg.FromDay, to: cfg.ToDay, dayDir: dayDir, reg: reg,
		done:     make(map[clock.Day]daystore.SealedFile),
		restored: make(map[clock.Day]bool),
		latest:   make(map[clock.Day]string),
		attempts: make(map[clock.Day]int),
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
		refs, err := l.journal.LoadDayRefs(l.from, l.to)
		if err != nil {
			return err
		}
		for d, dayRefs := range refs {
			ref, err := verifyLatest(dayDir, dayRefs)
			if err != nil {
				return fmt.Errorf("study: resuming day %s: %w", d, err)
			}
			l.done[d] = daystore.SealedFile{Day: d, Name: ref.File, SHA256: ref.SHA256}
			l.restored[d] = true
			l.latest[d] = dayRefs[len(dayRefs)-1].SHA256
		}
		l.report.ResumedDays = len(refs)
	}
	if dayDir != "" && len(l.done) == 0 {
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
	for d := l.from; d <= l.to; d++ {
		if !l.Done(d) && !l.quarantined(d) {
			days = append(days, d)
		}
	}
	return days
}

// Done reports whether day is completed (restored or accepted this run).
func (l *dayLedger) Done(day clock.Day) bool {
	_, ok := l.done[day]
	return ok
}

// Complete accepts a swept day whose sealed file (the zero SealedFile when
// days are kept in memory) is already durable, in the order that keeps a
// crash at any point resumable: journal the reference, then fold the
// day's sweep counts into the run registry, then count the day. A day
// already done or quarantined, or any day after a write error, is
// refused: each day's counts fold exactly once.
func (l *dayLedger) Complete(day clock.Day, file daystore.SealedFile, counts sweepCounts) error {
	switch {
	case l.err != nil:
		return l.err
	case l.Done(day):
		return fmt.Errorf("study: day %s completed twice", day)
	case l.quarantined(day):
		return fmt.Errorf("study: day %s completed after it was quarantined", day)
	}
	if l.journal != nil {
		if err := l.journal.WriteDayRef(day, checkpoint.DayRef{File: file.Name, SHA256: file.SHA256}); err != nil {
			return l.Abort(err)
		}
		l.latest[day] = file.SHA256
	}
	l.done[day] = file
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
	switch {
	case l.err != nil:
		return l.err
	case !l.Done(day):
		return fmt.Errorf("study: day %s re-sealed before it was done", day)
	}
	file := daystore.SealedFile{Day: day, Name: daystore.FileName(day), SHA256: daystore.ContentHash(image)}
	if l.journal != nil && l.latest[day] != file.SHA256 {
		if err := l.journal.WriteDayRef(day, checkpoint.DayRef{File: file.Name, SHA256: file.SHA256}); err != nil {
			return l.Abort(err)
		}
		l.latest[day] = file.SHA256
	}
	if l.dayDir != "" && l.done[day] != file {
		if _, err := daystore.Install(l.dayDir, day, image, file.SHA256); err != nil {
			return l.Abort(err)
		}
	}
	l.done[day] = file
	if l.restored[day] {
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
func (l *dayLedger) skippedIndex(day clock.Day) (int, bool) {
	sk := l.report.SkippedDays
	i := sort.Search(len(sk), func(i int) bool { return sk[i].Day >= day })
	return i, i < len(sk) && sk[i].Day == day
}

func (l *dayLedger) quarantined(day clock.Day) bool {
	_, ok := l.skippedIndex(day)
	return ok
}

// Quarantined returns the quarantined days, ascending.
func (l *dayLedger) Quarantined() []clock.Day {
	out := make([]clock.Day, len(l.report.SkippedDays))
	for i := range l.report.SkippedDays {
		out[i] = l.report.SkippedDays[i].Day
	}
	return out
}

// Report is the run report as of now: the day counts, the quarantine list
// and the registry's stable metric snapshot.
func (l *dayLedger) Report() RunReport {
	r := l.report
	snap := l.reg.StableSnapshot()
	r.Metrics = &snap
	return r
}
