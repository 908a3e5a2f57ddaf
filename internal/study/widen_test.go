package study

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"dnsddos/internal/checkpoint"
	"dnsddos/internal/clock"
	"dnsddos/internal/daystore"
)

// widen_test.go holds the sweep demand's accounting and its second pass:
// the sweep counters cover every domain-day once, and a run killed around
// the second pass resumes to the bytes of a run that was not.

// sweptDomains returns the outcome counters' sum and study.sweep.skipped.
func sweptDomains(s *Study) (measured, skipped int64) {
	c := s.Report.Metrics.Counters
	return c["study.sweep.ok"] + c["study.sweep.servfail"] + c["study.sweep.timeout"], c["study.sweep.skipped"]
}

// TestSweepCountsCoverEveryDomainDay: ok + servfail + timeout + skipped is
// the domains times the days swept, on the repo benchmark's configuration
// with two workers sharing the session's demand, and on a configuration
// with a quarantined day whose fallback day the second pass sweeps again;
// and the outcome counters equal the domains the sealed days' rows hold,
// so the second pass counts the domains it adds once and those its day's
// first sweep measured not again.
func TestSweepCountsCoverEveryDomainDay(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	bench := benchmarkScaleConfig()
	bench.Parallelism = 2
	quarantined := resumeConfig()
	quarantined.Parallelism = 2
	for _, tc := range []struct {
		name       string
		cfg        Config
		quarantine clock.Day // -1: none
	}{
		{"benchmark", bench, -1},
		{"quarantined", quarantined, 28},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := RunContext(context.Background(), tc.cfg, WithBeforeDay(func(d clock.Day) {
				if d == tc.quarantine {
					panic("injected sweep fault")
				}
			}))
			if err != nil {
				t.Fatal(err)
			}
			var q []clock.Day
			for _, sk := range s.Report.SkippedDays {
				q = append(q, sk.Day)
			}
			if tc.quarantine >= 0 && (!slices.Equal(q, []clock.Day{tc.quarantine}) || len(s.fallbackDemand(q)) == 0) {
				t.Fatalf("quarantined %v, fallbacks %v: the second pass would not run", q, s.fallbackDemand(q))
			}
			measured, skipped := sweptDomains(s)
			domains := int64(len(s.World.DB.Domains))
			if got, want := measured+skipped, domains*int64(s.Report.CompletedDays); got != want {
				t.Errorf("ok + servfail + timeout + skipped = %d + %d, want %d domains × %d days = %d",
					measured, skipped, domains, s.Report.CompletedDays, want)
			}
			set := s.Pipeline.DayStore().(*daystore.Set)
			var sealed int64
			for _, k := range set.Keys() {
				for d := tc.cfg.FromDay; d <= tc.cfg.ToDay; d++ {
					if b, ok := set.Baseline(k, d); ok {
						sealed += int64(b.Domains)
					}
				}
			}
			if measured != sealed {
				t.Errorf("the counters hold %d measurements, the sealed days %d", measured, sealed)
			}
			if measured == 0 || skipped == 0 {
				t.Errorf("%d measured, %d skipped: the check would be vacuous", measured, skipped)
			}
			t.Logf("%d of %d domain-days measured (%.1f%%)", measured, measured+skipped, 100*float64(measured)/float64(measured+skipped))
		})
	}
}

// TestResumeBetweenPasses: a checkpointed run with a quarantined day,
// killed once its first pass is over and before the second pass re-seals
// the quarantined day's fallback, resumes to the events of a run that was
// not killed, journaling the fallback day a second time. A resume that
// finds the fallback's file still the first pass's — a crash after the
// re-seal was journaled and before its file was published — restores the
// day from the earlier reference, publishes the re-seal again without
// journaling it again, and joins to the same events.
func TestResumeBetweenPasses(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cfg := resumeConfig()
	cfg.Parallelism = 1
	const quarantine, fallback = 28, 27
	fault := func(d clock.Day) {
		if d == quarantine {
			panic("injected sweep fault")
		}
	}
	ref, err := RunContext(context.Background(), cfg, WithBeforeDay(fault))
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Events) == 0 || len(ref.Report.SkippedDays) != 1 {
		t.Fatalf("reference run: %d events, %d days quarantined; want events and one", len(ref.Events), len(ref.Report.SkippedDays))
	}
	refCSV := eventsBytes(t, ref)
	days := int(cfg.ToDay-cfg.FromDay) + 1
	dir := t.TempDir()
	dayFile := filepath.Join(dir, "days", daystore.FileName(fallback))
	journaled := func(want int) {
		t.Helper()
		refs, err := checkpoint.ReadDayRefs(dir)
		if err != nil || len(refs) != want {
			t.Fatalf("the journal holds %d references (err %v), want %d", len(refs), err, want)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	visits := 0
	_, err = RunContext(ctx, cfg, WithCheckpointDir(dir), WithBeforeDay(func(d clock.Day) {
		fault(d)
		if d == fallback {
			if visits++; visits == 2 {
				cancel() // the second pass has started
			}
		}
	}))
	if !errors.Is(err, context.Canceled) || visits != 2 {
		t.Fatalf("killed run: err %v after %d visits of day %d, want context.Canceled after 2", err, visits, fallback)
	}
	journaled(days - 1)
	firstPass, err := os.ReadFile(dayFile)
	if err != nil {
		t.Fatal(err)
	}

	resume := func() *Study {
		t.Helper()
		s, err := RunContext(context.Background(), cfg, WithCheckpointDir(dir), WithResume(true), WithBeforeDay(fault))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(refCSV, eventsBytes(t, s)) {
			t.Error("the resumed run's events differ from the uninterrupted run's")
		}
		if measured, skipped := sweptDomains(s); measured+skipped != int64(len(s.World.DB.Domains)) {
			t.Errorf("the resumed run swept one day again and counted %d + %d domains, want %d", measured, skipped, len(s.World.DB.Domains))
		}
		return s
	}
	resume()
	journaled(days)
	widened, err := os.ReadFile(dayFile)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(widened, firstPass) {
		t.Fatal("the second pass left the fallback day's file as it was")
	}

	if err := os.WriteFile(dayFile, firstPass, 0o644); err != nil {
		t.Fatal(err)
	}
	resume()
	journaled(days)
	if got, err := os.ReadFile(dayFile); err != nil || !bytes.Equal(got, widened) {
		t.Errorf("the fallback day's file was not published again (err %v)", err)
	}
}

// TestResumeClearsUnjournaledDay: a day whose file was published but
// whose reference was never journaled — a run killed between the two — is
// not part of the resumed run: its file is removed, and when the resumed
// run quarantines the day the join falls back from it, to the events of a
// run that quarantined the day from the start.
func TestResumeClearsUnjournaledDay(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cfg := resumeConfig()
	const quarantine = 30
	fault := func(d clock.Day) {
		if d == quarantine {
			panic("injected sweep fault")
		}
	}
	ref, err := RunContext(context.Background(), cfg, WithBeforeDay(fault))
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Events) == 0 || len(ref.Report.SkippedDays) != 1 {
		t.Fatalf("reference run: %d events, %d days quarantined; want events and one", len(ref.Events), len(ref.Report.SkippedDays))
	}

	dir := t.TempDir()
	full, err := RunContext(context.Background(), cfg, WithCheckpointDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := full.Pipeline.DayStore().(*daystore.Set).Close(); err != nil {
		t.Fatal(err)
	}
	// Write the day log again without the quarantined day's reference.
	refs, err := checkpoint.ReadDayRefs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, checkpoint.DayLog)); err != nil {
		t.Fatal(err)
	}
	journal, err := OpenJournal(dir, cfg, cfg.MeasureSeed, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range refs {
		if r.Day != quarantine {
			if err := journal.WriteDayRef(r.Day, r); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := journal.Close(); err != nil {
		t.Fatal(err)
	}

	s, err := RunContext(context.Background(), cfg, WithCheckpointDir(dir), WithResume(true), WithBeforeDay(fault))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "days", daystore.FileName(quarantine))); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("the unjournaled day's file survived the resume (%v)", err)
	}
	if got, want := eventsBytes(t, s), eventsBytes(t, ref); !bytes.Equal(got, want) {
		t.Errorf("the resumed run's events (%d bytes) differ from those of a run that quarantined day %d (%d bytes)", len(got), quarantine, len(want))
	}
}
