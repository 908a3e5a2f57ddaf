package study

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dnsddos/internal/clock"
	"dnsddos/internal/daystore"
	"dnsddos/internal/nsset"
	"dnsddos/internal/obs"
)

// ledger_test.go drives the day ledger alone — no world, no sweeps, no
// sockets: the state machine both run modes share is checked once, here.

func ledgerConfig() Config {
	return Config{FromDay: 10, ToDay: 14, MeasureSeed: 7}
}

var sweepOf5 = obs.Snapshot{Counters: map[string]int64{"study.sweep.ok": 5}}

// sealEmpty seals an empty day file — enough for the ledger, which only
// names and hashes it.
func sealEmpty(t *testing.T, dir string, day clock.Day) daystore.SealedFile {
	t.Helper()
	f, err := daystore.SealDay(dir, day, nsset.Snapshot{})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func globCount(t *testing.T, pattern string) int {
	t.Helper()
	files, err := filepath.Glob(pattern)
	if err != nil {
		t.Fatal(err)
	}
	return len(files)
}

// ledgerStep is one call into the ledger and what it must answer.
type ledgerStep struct {
	op            string // "fail" (retryable), "watchdog" (not), "complete", "break" (journal dir vanishes)
	day           clock.Day
	reason, stack string
	retry         bool // fail, watchdog: Fail's answer
	dup, refused  bool // complete: Complete's answer
}

func TestLedgerStateMachine(t *testing.T) {
	for _, tc := range []struct {
		name        string
		steps       []ledgerStep
		wantSkipped []SkippedDay
		wantDone    int
		wantOK      int64 // study.sweep.ok folded into the registry
		wantPending []clock.Day
	}{
		{
			name:        "one retryable failure retries",
			steps:       []ledgerStep{{op: "fail", day: 11, reason: "panic: a", stack: "s1", retry: true}},
			wantPending: []clock.Day{10, 11, 12, 13, 14},
		},
		{
			name: "second failure quarantines with the last reason and stack",
			steps: []ledgerStep{
				{op: "fail", day: 11, reason: "worker w lost mid-shard: EOF", retry: true},
				{op: "fail", day: 11, reason: "panic: b", stack: "s2"},
			},
			wantSkipped: []SkippedDay{{Day: 11, Reason: "panic: b", Stack: "s2", Attempts: 2}},
			wantPending: []clock.Day{10, 12, 13, 14},
		},
		{
			name:        "watchdog quarantines at the first attempt",
			steps:       []ledgerStep{{op: "watchdog", day: 12, reason: "watchdog: day-shard exceeded 1s"}},
			wantSkipped: []SkippedDay{{Day: 12, Reason: "watchdog: day-shard exceeded 1s", Attempts: 1}},
			wantPending: []clock.Day{10, 11, 13, 14},
		},
		{
			name: "retried day completes and leaves no trace",
			steps: []ledgerStep{
				{op: "fail", day: 13, reason: "panic: once", retry: true},
				{op: "complete", day: 13},
			},
			wantDone: 1, wantOK: 5,
			wantPending: []clock.Day{10, 11, 12, 14},
		},
		{
			name: "duplicate complete folds once",
			steps: []ledgerStep{
				{op: "complete", day: 10},
				{op: "complete", day: 10, dup: true},
				{op: "fail", day: 10, reason: "panic: late"}, // a done day cannot fail
			},
			wantDone: 1, wantOK: 5,
			wantPending: []clock.Day{11, 12, 13, 14},
		},
		{
			name: "complete of a quarantined day is refused",
			steps: []ledgerStep{
				{op: "watchdog", day: 10, reason: "watchdog: stuck"},
				{op: "complete", day: 10, refused: true},
				{op: "complete", day: 11},
			},
			wantSkipped: []SkippedDay{{Day: 10, Reason: "watchdog: stuck", Attempts: 1}},
			wantDone:    1, wantOK: 5,
			wantPending: []clock.Day{12, 13, 14},
		},
		{
			name: "nothing is accepted after a write error",
			steps: []ledgerStep{
				{op: "complete", day: 10},
				{op: "break"},
				{op: "complete", day: 11, refused: true},
				{op: "complete", day: 12, refused: true},
			},
			wantDone: 1, wantOK: 5,
			wantPending: []clock.Day{11, 12, 13, 14},
		},
		{
			name: "skipped days come out ascending, and the run settles",
			steps: []ledgerStep{
				{op: "watchdog", day: 14, reason: "watchdog: c"},
				{op: "complete", day: 13},
				{op: "watchdog", day: 10, reason: "watchdog: a"},
				{op: "complete", day: 11},
				{op: "watchdog", day: 12, reason: "watchdog: b"},
			},
			wantSkipped: []SkippedDay{
				{Day: 10, Reason: "watchdog: a", Attempts: 1},
				{Day: 12, Reason: "watchdog: b", Attempts: 1},
				{Day: 14, Reason: "watchdog: c", Attempts: 1},
			},
			wantDone: 2, wantOK: 10,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ckpt, days := filepath.Join(t.TempDir(), "ckpt"), t.TempDir()
			l, err := OpenLedger(ledgerConfig(), obs.New(), ckpt, days, false)
			if err != nil {
				t.Fatal(err)
			}
			broken := false
			for i, st := range tc.steps {
				switch st.op {
				case "fail", "watchdog":
					if got := l.Fail(st.day, st.reason, st.stack, st.op == "fail"); got != st.retry {
						t.Fatalf("step %d: Fail(%v) retry = %v, want %v", i, st.day, got, st.retry)
					}
				case "complete":
					dup, err := l.Complete(st.day, sealEmpty(t, days, st.day), sweepOf5)
					if dup != st.dup || (err != nil) != st.refused {
						t.Fatalf("step %d: Complete(%v) = dup %v err %v, want dup %v refused %v", i, st.day, dup, err, st.dup, st.refused)
					}
					if broken && !errors.Is(err, os.ErrNotExist) {
						t.Fatalf("step %d: refusal after a write error = %v, want the write error", i, err)
					}
				case "break":
					if globCount(t, filepath.Join(ckpt, "dayref_*.ckpt")) != tc.wantDone {
						t.Fatalf("step %d: journal does not hold %d records before the break", i, tc.wantDone)
					}
					if err := os.RemoveAll(ckpt); err != nil {
						t.Fatal(err)
					}
					broken = true
				}
			}
			rep := l.Report()
			if !reflect.DeepEqual(rep.SkippedDays, tc.wantSkipped) {
				t.Errorf("SkippedDays = %+v, want %+v", rep.SkippedDays, tc.wantSkipped)
			}
			if rep.CompletedDays != tc.wantDone || rep.ResumedDays != 0 {
				t.Errorf("CompletedDays = %d ResumedDays = %d, want %d and 0", rep.CompletedDays, rep.ResumedDays, tc.wantDone)
			}
			if got := rep.Metrics.Counters["study.sweep.ok"]; got != tc.wantOK {
				t.Errorf("study.sweep.ok = %d, want %d (folded once per accepted day)", got, tc.wantOK)
			}
			if got := l.Pending(); !reflect.DeepEqual(got, tc.wantPending) {
				t.Errorf("Pending = %v, want %v", got, tc.wantPending)
			}
			if !broken {
				if n := globCount(t, filepath.Join(ckpt, "dayref_*.ckpt")); n != tc.wantDone {
					t.Errorf("journal holds %d day records, want %d", n, tc.wantDone)
				}
			}
			if got := l.Settled(); got != (len(tc.wantPending) == 0) {
				t.Errorf("Settled = %v with %d days pending", got, len(tc.wantPending))
			}
		})
	}
}

// TestLedgerResume: a resume trusts a journaled day only after re-hashing
// its file, and clears the day directory exactly when it restored nothing.
func TestLedgerResume(t *testing.T) {
	for _, tc := range []struct {
		name      string
		journaled []clock.Day
		damage    func(t *testing.T, path string) // applied to day 10's file
		wantErr   error
		wantStale bool // stale files survive the open
	}{
		{name: "pristine", journaled: []clock.Day{10, 11}, wantStale: true},
		{name: "nothing restored clears stale files", journaled: nil},
		{
			name: "flipped byte", journaled: []clock.Day{10},
			damage: func(t *testing.T, path string) {
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				b[len(b)/2] ^= 0x01
				if err := os.WriteFile(path, b, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantErr: daystore.ErrCorrupt,
		},
		{
			name: "truncated", journaled: []clock.Day{10},
			damage: func(t *testing.T, path string) {
				if err := os.Truncate(path, 16); err != nil {
					t.Fatal(err)
				}
			},
			wantErr: daystore.ErrCorrupt,
		},
		{
			name: "missing", journaled: []clock.Day{10},
			damage: func(t *testing.T, path string) {
				if err := os.Remove(path); err != nil {
					t.Fatal(err)
				}
			},
			wantErr: os.ErrNotExist,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ckpt := t.TempDir()
			days := filepath.Join(ckpt, "days")
			first, err := OpenLedger(ledgerConfig(), obs.New(), ckpt, days, false)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range tc.journaled {
				if _, err := first.Complete(d, sealEmpty(t, days, d), sweepOf5); err != nil {
					t.Fatal(err)
				}
			}
			// what a killed run leaves behind: a sealed day its journal never
			// referenced, and a half-written seal
			stale := []string{
				filepath.Join(days, sealEmpty(t, days, 13).Name),
				filepath.Join(days, daystore.FileName(14)+".tmp-123"),
			}
			if err := os.WriteFile(stale[1], []byte("torn"), 0o644); err != nil {
				t.Fatal(err)
			}
			if tc.damage != nil {
				tc.damage(t, filepath.Join(days, daystore.FileName(10)))
			}

			reg := obs.New()
			l, err := OpenLedger(ledgerConfig(), reg, ckpt, days, true)
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("resume error = %v, want %v", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			rep := l.Report()
			if rep.ResumedDays != len(tc.journaled) || rep.CompletedDays != 0 {
				t.Errorf("ResumedDays = %d CompletedDays = %d, want %d and 0", rep.ResumedDays, rep.CompletedDays, len(tc.journaled))
			}
			if n := len(rep.Metrics.Counters); n != 0 {
				t.Errorf("restored days folded %d counters; they contribute no observations", n)
			}
			for _, d := range tc.journaled {
				if !l.Done(d) {
					t.Errorf("journaled day %v not restored", d)
				}
			}
			if got, want := len(l.Pending()), 5-len(tc.journaled); got != want {
				t.Errorf("%d days pending, want %d", got, want)
			}
			for _, p := range stale {
				_, err := os.Stat(p)
				if survived := err == nil; survived != tc.wantStale {
					t.Errorf("stale file %s survived = %v, want %v", filepath.Base(p), survived, tc.wantStale)
				}
			}
		})
	}
}
