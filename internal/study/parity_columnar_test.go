package study

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"dnsddos/internal/checkpoint"
	"dnsddos/internal/clock"
	"dnsddos/internal/daystore"
	"dnsddos/internal/obs"
)

// parity_columnar_test.go is the acceptance gate for the sealed day store
// (DESIGN §3.9): the same seeded world run with its sealed day images held
// in memory and with them written to files by WithDayStoreDir (joined
// through mmap views) must emit the merged-aggregator oracle's events CSV
// and run report byte for byte. The sealed round-trip is all-integer, so
// the Eq. 1 float math divides exactly the same numerators and
// denominators either way.

// mergedRun is the run loop as it was before every run sealed its days,
// kept as the oracle the sealed path is held to: each pending day swept
// with Session.sweepDayAttempt (a failed attempt charged to the same
// ledger, and retried or quarantined as it says), the days merged into
// one aggregator, and the join run over that aggregator.
func mergedRun(t *testing.T, cfg Config, beforeDay func(clock.Day)) *Study {
	t.Helper()
	ctx := context.Background()
	reg := obs.New()
	sess, err := NewSession(ctx, cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	ledger, err := openLedger(cfg, reg, "", "", false)
	if err != nil {
		t.Fatal(err)
	}
	agg := sess.NewAggregator()
	for _, day := range ledger.Pending() {
		for {
			dayAgg, sweep, f := sess.sweepDayAttempt(ctx, day, nil, beforeDay)
			if f == nil {
				if err := ledger.Complete(day, daystore.SealedFile{}, sweep); err != nil {
					t.Fatal(err)
				}
				agg.Merge(dayAgg)
				break
			}
			if !ledger.Fail(day, f.Reason, f.Stack, f.Retryable) {
				break
			}
		}
	}
	s := sess.newStudy(reg)
	s.Pipeline = sess.NewPipeline(agg, ledger.Quarantined(), reg)
	if s.Events, err = s.Pipeline.EventsContext(ctx, s.Attacks); err != nil {
		t.Fatal(err)
	}
	s.Report = ledger.Report()
	return s
}

// runParity executes cfg three ways — the merged oracle, a run that seals
// its days into memory, and one that seals them to files — asserts that
// both sealed runs emit the oracle's output byte for byte, and returns
// the oracle.
func runParity(t *testing.T, cfg Config, beforeDay func(clock.Day)) *Study {
	t.Helper()
	ref := mergedRun(t, cfg, beforeDay)
	if len(ref.Events) == 0 {
		t.Fatal("the oracle joined no events; the comparison would be vacuous")
	}
	mem, err := RunContext(context.Background(), cfg, WithBeforeDay(beforeDay))
	if err != nil {
		t.Fatalf("in-memory run: %v", err)
	}
	if _, ok := mem.Pipeline.DayStore().(*daystore.Set); !ok || mem.Agg != nil {
		t.Errorf("the join read %T (Study.Agg %p), want the sealed days alone", mem.Pipeline.DayStore(), mem.Agg)
	}
	dir := t.TempDir()
	col, err := RunContext(context.Background(), cfg, WithBeforeDay(beforeDay), WithDayStoreDir(dir))
	if err != nil {
		t.Fatalf("columnar run: %v", err)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "day_*.dcol")); len(files) == 0 {
		t.Fatal("columnar run sealed no day files; it silently kept them in memory")
	}
	refCSV, refReport := eventsBytes(t, ref), stacklessReport(t, ref)
	rs := ref.Pipeline.DayStore()
	for _, run := range []struct {
		name string
		s    *Study
	}{{"in-memory", mem}, {"columnar", col}} {
		if !bytes.Equal(refCSV, eventsBytes(t, run.s)) {
			t.Errorf("%s run's events differ from the merged oracle's", run.name)
		}
		// and under the events: at every emitted event's attack span, the
		// sealed store answers the join's two reads as the aggregator does
		ss := run.s.Pipeline.DayStore()
		for i := range ref.Events {
			e := &ref.Events[i]
			from, to := e.Attack.StartWindow, e.Attack.EndWindow
			if rw, sw := rs.AppendWindows(nil, e.NSSet, from, to), ss.AppendWindows(nil, e.NSSet, from, to); !reflect.DeepEqual(rw, sw) {
				t.Fatalf("%s: event %d: AppendWindows(%s, %d, %d) = %+v merged, %+v sealed", run.name, i, e.NSSet, from, to, rw, sw)
			}
			rb, rok := rs.Baseline(e.NSSet, from.Day().Prev())
			if sb, sok := ss.Baseline(e.NSSet, from.Day().Prev()); rb != sb || rok != sok {
				t.Fatalf("%s: event %d: Baseline(%s) = %+v, %v merged, %+v, %v sealed", run.name, i, e.NSSet, rb, rok, sb, sok)
			}
		}
		if !bytes.Equal(refReport, stacklessReport(t, run.s)) {
			t.Errorf("%s run's report differs from the merged oracle's", run.name)
		}
	}
	return ref
}

// stacklessReport is reportJSON without the quarantined days' stacks,
// which name the frames the panic unwound through.
func stacklessReport(t *testing.T, s *Study) []byte {
	t.Helper()
	for i := range s.Report.SkippedDays {
		s.Report.SkippedDays[i].Stack = ""
	}
	return reportJSON(t, s)
}

// TestJoinParityColumnar: same world, same schedule, same events — byte
// for byte — whether the days are merged into one aggregator or sealed,
// in memory or to files.
func TestJoinParityColumnar(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}

	t.Run("transip_window", func(t *testing.T) {
		runParity(t, resumeConfig(), nil)
	})
	for seed := uint64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cfg := resumeConfig()
			cfg.World.Seed, cfg.Attacks.Seed, cfg.Synth.Seed, cfg.MeasureSeed = seed, seed, seed, seed
			runParity(t, cfg, nil)
		})
	}

	// quarantined day: the day never seals, so the sealed stores serve an
	// absent day — which must read exactly like the aggregator's empty
	// day, with the join falling back identically.
	t.Run("quarantined_day", func(t *testing.T) {
		cfg := resumeConfig()
		cfg.Parallelism = 1
		target := clock.Day(29)
		var mu sync.Mutex
		ref := runParity(t, cfg, func(d clock.Day) {
			if d == target {
				mu.Lock()
				defer mu.Unlock()
				panic("injected parity fault")
			}
		})
		if sk := ref.Report.SkippedDays; len(sk) != 1 || sk[0].Day != target {
			t.Errorf("quarantined %+v, want day %d alone", sk, target)
		}
	})
}

// TestUnpersistedRunWritesNoFile: without a checkpoint or day-store
// directory a run keeps its sealed days in memory and writes nothing, not
// even to the temporary directory.
func TestUnpersistedRunWritesNoFile(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	cfg := resumeConfig()
	cfg.ToDay = 29
	s, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Report.CompletedDays == 0 {
		t.Fatal("no day completed")
	}
	entries, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("the run wrote %s", e.Name())
	}
}

// TestColumnarCancelAndResumeByteIdentical is the twin of
// TestCancelAndResumeByteIdentical with the sealed files in their own
// WithDayStoreDir directory instead of <checkpoint>/days: kill after two
// sealed days, resume from the content-hash day references, and the
// joined events must be byte-identical to an uninterrupted run.
func TestColumnarCancelAndResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cfg := resumeConfig()

	ref, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	refCSV := eventsBytes(t, ref)

	ckptDir, dsDir := t.TempDir(), t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killCfg := cfg
	killCfg.Parallelism = 1
	n := 0
	_, err = RunContext(ctx, killCfg,
		WithCheckpointDir(ckptDir),
		WithDayStoreDir(dsDir),
		WithBeforeDay(func(clock.Day) {
			n++
			if n == 3 {
				cancel()
			}
		}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("killed run error = %v, want context.Canceled", err)
	}
	refs, err := checkpoint.ReadDayRefs(ckptDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 2 {
		t.Fatalf("killed run recorded %d day refs, want 2: %v", len(refs), refs)
	}
	if nested, _ := filepath.Glob(filepath.Join(ckptDir, "days", "*")); len(nested) != 0 {
		t.Fatalf("an explicit day-store directory still sealed under the checkpoint: %v", nested)
	}

	res, err := RunContext(context.Background(), cfg,
		WithCheckpointDir(ckptDir), WithDayStoreDir(dsDir), WithResume(true))
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.ResumedDays != 2 {
		t.Errorf("ResumedDays = %d, want 2", res.Report.ResumedDays)
	}
	if !bytes.Equal(refCSV, eventsBytes(t, res)) {
		t.Error("resumed columnar run's events differ from the uninterrupted run")
	}
}

// TestColumnarResumeRefusesCorruptSeal: a resume whose day reference
// points at swapped or missing bytes is refused with a typed
// daystore.ErrCorrupt (or the os error for a vanished file) — never a
// silent partial resume.
func TestColumnarResumeRefusesCorruptSeal(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cfg := resumeConfig()
	cfg.ToDay = 29

	seedCkpt, seedDS := t.TempDir(), t.TempDir()
	if _, err := RunContext(context.Background(), cfg,
		WithCheckpointDir(seedCkpt), WithDayStoreDir(seedDS)); err != nil {
		t.Fatal(err)
	}

	resume := func(ckptDir, dsDir string) error {
		_, err := RunContext(context.Background(), cfg,
			WithCheckpointDir(ckptDir), WithDayStoreDir(dsDir), WithResume(true))
		return err
	}

	t.Run("pristine resumes", func(t *testing.T) {
		if err := resume(copyDir(t, seedCkpt), copyDir(t, seedDS)); err != nil {
			t.Fatalf("clean resume failed: %v", err)
		}
	})
	t.Run("swapped seal bytes", func(t *testing.T) {
		dsDir := copyDir(t, seedDS)
		files, err := filepath.Glob(filepath.Join(dsDir, "day_*.dcol"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no sealed files (err %v)", err)
		}
		b, err := os.ReadFile(files[0])
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)/2] ^= 0x01
		if err := os.WriteFile(files[0], b, 0o644); err != nil {
			t.Fatal(err)
		}
		err = resume(copyDir(t, seedCkpt), dsDir)
		if !errors.Is(err, daystore.ErrCorrupt) {
			t.Fatalf("resume error = %v, want daystore.ErrCorrupt", err)
		}
	})
	t.Run("missing seal", func(t *testing.T) {
		dsDir := copyDir(t, seedDS)
		files, err := filepath.Glob(filepath.Join(dsDir, "day_*.dcol"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no sealed files (err %v)", err)
		}
		if err := os.Remove(files[0]); err != nil {
			t.Fatal(err)
		}
		if err := resume(copyDir(t, seedCkpt), dsDir); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("resume error = %v, want os.ErrNotExist", err)
		}
	})
}
