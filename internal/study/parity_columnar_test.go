package study

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"dnsddos/internal/clock"
	"dnsddos/internal/daystore"
)

// parity_columnar_test.go is the acceptance gate for the out-of-core day
// store (DESIGN §3.9): the same seeded world run through the in-memory
// aggregator path and through WithDayStoreDir (seal each completed day
// to a columnar file, join against mmap views) must emit byte-identical
// events CSV and run report. The columnar round-trip is all-integer, so
// the Eq. 1 float math divides exactly the same numerators and
// denominators either way.

// runColumnarPair executes cfg through the in-memory and the columnar
// day path and asserts byte-identical output.
func runColumnarPair(t *testing.T, name string, cfg Config, extra ...Option) {
	t.Helper()
	mem, err := RunContext(context.Background(), cfg, extra...)
	if err != nil {
		t.Fatalf("%s: in-memory run: %v", name, err)
	}
	dir := t.TempDir()
	col, err := RunContext(context.Background(), cfg,
		append(extra[:len(extra):len(extra)], WithDayStoreDir(dir))...)
	if err != nil {
		t.Fatalf("%s: columnar run: %v", name, err)
	}
	if len(mem.Events) == 0 {
		t.Fatalf("%s: in-memory run joined no events; the comparison would be vacuous", name)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "day_*.dcol")); len(files) == 0 {
		t.Fatalf("%s: columnar run sealed no day files; it silently took the in-memory path", name)
	}
	if !bytes.Equal(eventsBytes(t, mem), eventsBytes(t, col)) {
		t.Errorf("%s: in-memory and columnar day stores emitted different events", name)
	}
	// and under the events: at every emitted event's attack span, the two
	// stores answer the join's two reads identically
	ms, cs := mem.Pipeline.DayStore(), col.Pipeline.DayStore()
	for i := range mem.Events {
		e := &mem.Events[i]
		from, to := e.Attack.StartWindow, e.Attack.EndWindow
		if mw, cw := ms.AppendWindows(nil, e.NSSet, from, to), cs.AppendWindows(nil, e.NSSet, from, to); !reflect.DeepEqual(mw, cw) {
			t.Fatalf("%s: event %d: AppendWindows(%s, %d, %d) = %+v in memory, %+v columnar", name, i, e.NSSet, from, to, mw, cw)
		}
		mb, mok := ms.Baseline(e.NSSet, from.Day().Prev())
		if cb, cok := cs.Baseline(e.NSSet, from.Day().Prev()); mb != cb || mok != cok {
			t.Fatalf("%s: event %d: Baseline(%s) = %+v, %v in memory, %+v, %v columnar", name, i, e.NSSet, mb, mok, cb, cok)
		}
	}
	for i := range mem.Report.SkippedDays {
		mem.Report.SkippedDays[i].Stack = ""
	}
	for i := range col.Report.SkippedDays {
		col.Report.SkippedDays[i].Stack = ""
	}
	if !bytes.Equal(reportJSON(t, mem), reportJSON(t, col)) {
		t.Errorf("%s: in-memory and columnar run reports differ", name)
	}
}

// TestJoinParityColumnar is the ISSUE acceptance test: same world, same
// schedule, same events — byte for byte — whichever day store backs the
// join.
func TestJoinParityColumnar(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}

	t.Run("transip_window", func(t *testing.T) {
		runColumnarPair(t, "transip_window", resumeConfig())
	})

	// quarantined day: the day never seals, so the columnar store serves
	// an absent file — which must read exactly like the in-memory
	// aggregator's empty day, with the join falling back identically.
	t.Run("quarantined_day", func(t *testing.T) {
		cfg := resumeConfig()
		cfg.Parallelism = 1
		target := clock.Day(29)
		var mu sync.Mutex
		runColumnarPair(t, "quarantined_day", cfg, WithBeforeDay(func(d clock.Day) {
			if d == target {
				mu.Lock()
				defer mu.Unlock()
				panic("injected parity fault")
			}
		}))
	})
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
	refs, err := filepath.Glob(filepath.Join(ckptDir, "dayref_*.ckpt"))
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
