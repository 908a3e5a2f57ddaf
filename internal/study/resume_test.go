package study

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"dnsddos/internal/checkpoint"
	"dnsddos/internal/clock"
	"dnsddos/internal/core"
	"dnsddos/internal/daystore"
	"dnsddos/internal/obs"
)

// EventsCSV is report.EventsCSV. Package report imports this one (its
// catalogue renders a *Study), so only the external test package may
// import it: eventscsv_test.go sets the variable before any test runs.
var EventsCSV func(io.Writer, []core.Event) error

// resumeConfig spans the TransIP December attack (days 27–31) so the
// event join has real work to do across the kill point.
func resumeConfig() Config {
	cfg := QuickConfig()
	cfg.World.Domains = 2500
	cfg.Attacks.TotalAttacks = 2500
	cfg.FromDay, cfg.ToDay = 27, 33
	return cfg
}

// mustRun is RunContext without options for tests that only want the
// finished study.
func mustRun(t *testing.T, cfg Config) *Study {
	t.Helper()
	s, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func eventsBytes(t *testing.T, s *Study) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EventsCSV(&buf, s.Events); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// reportJSON serializes the run report the way cmd/report archives it.
func reportJSON(t *testing.T, s *Study) []byte {
	t.Helper()
	b, err := json.MarshalIndent(&s.Report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCancelAndResumeByteIdentical is the crash-safety contract of a
// -checkpoint-only run: kill it at a day boundary, resume it, and the
// joined events must be byte-identical to an uninterrupted run. Every row
// also pins the on-disk layout — a day is persisted in one form only, so
// the journal is header.json and one day log holding a record per day,
// the sealed files live under <checkpoint>/days, and no other record is
// ever written.
func TestCancelAndResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cfg := resumeConfig()

	ref, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Events) == 0 {
		t.Fatal("reference run joined no events; the comparison would be vacuous")
	}
	refCSV := eventsBytes(t, ref)

	for _, tc := range []struct {
		name string
		// killAt cancels the run when the killAt-th day-shard starts;
		// Parallelism 1 makes the dispatch order deterministic, so exactly
		// killAt-1 days are journaled.
		killAt int
	}{
		{"killed_mid_run", 3},
		{"killed_before_first_day", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			killCfg := cfg
			killCfg.Parallelism = 1
			n := 0
			_, err := RunContext(ctx, killCfg,
				WithCheckpointDir(dir),
				WithBeforeDay(func(clock.Day) {
					n++
					if n == tc.killAt {
						cancel()
					}
				}))
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("killed run error = %v, want context.Canceled", err)
			}
			want := tc.killAt - 1
			if refs, err := checkpoint.ReadDayRefs(dir); err != nil || len(refs) != want {
				t.Fatalf("killed run journaled %d days (err %v), want %d", len(refs), err, want)
			}
			logs := 0 // the log is opened by the first append
			if want > 0 {
				logs = 1
			}
			for pattern, n := range map[string]int{
				"header.json":     1,
				"*.ckpt":          logs,
				checkpoint.DayLog: logs,
				"days/day_*.dcol": want,
			} {
				files, err := filepath.Glob(filepath.Join(dir, pattern))
				if err != nil {
					t.Fatal(err)
				}
				if len(files) != n {
					t.Fatalf("killed run left %d %s, want %d: %v", len(files), pattern, n, files)
				}
			}

			// resume with the original parallelism: the header hash ignores
			// Parallelism, so a resume on different hardware is legitimate
			res, err := RunContext(context.Background(), cfg, WithCheckpointDir(dir), WithResume(true))
			if err != nil {
				t.Fatal(err)
			}
			if res.Report.ResumedDays != want {
				t.Errorf("ResumedDays = %d, want %d", res.Report.ResumedDays, want)
			}
			if all := int(cfg.ToDay-cfg.FromDay) + 1; res.Report.CompletedDays != all-want {
				t.Errorf("CompletedDays = %d, want %d", res.Report.CompletedDays, all-want)
			}
			if !bytes.Equal(refCSV, eventsBytes(t, res)) {
				t.Error("resumed run's events differ from the uninterrupted run")
			}
		})
	}
}

// TestCancelledRunClosesItsFiles: a checkpointed run cancelled mid-sweep,
// after it has sealed days, returns with every file it opened in its
// directory closed — the journal, and the day directory its store
// publishes through. Files the process has open elsewhere are not
// counted: a finalizer may close one of them at any time.
func TestCancelledRunClosesItsFiles(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	cfg := resumeConfig()
	cfg.Parallelism = 1
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n := 0
	_, err = RunContext(ctx, cfg, WithCheckpointDir(dir), WithBeforeDay(func(clock.Day) {
		if n++; n == 3 {
			cancel()
		}
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run error = %v, want context.Canceled", err)
	}
	if fds, err = os.ReadDir("/proc/self/fd"); err != nil {
		t.Fatal(err)
	}
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.HasPrefix(target, dir) {
			t.Errorf("the cancelled run left %s open", target)
		}
	}
}

// copyDir clones a checkpoint directory, sealed day files included.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// rewriteLog replaces the day log in dir with edit applied to its bytes.
func rewriteLog(t *testing.T, dir string, edit func([]byte) []byte) {
	t.Helper()
	p := filepath.Join(dir, checkpoint.DayLog)
	b, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, edit(b), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestResumeRefusesCorruptCheckpoints covers the refusal matrix: every
// damaged or mismatched checkpoint directory must produce a clean error,
// never a silent partial resume.
func TestResumeRefusesCorruptCheckpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cfg := resumeConfig()
	cfg.FromDay, cfg.ToDay = 27, 29

	seed := t.TempDir()
	full, err := RunContext(context.Background(), cfg, WithCheckpointDir(seed))
	if err != nil {
		t.Fatal(err)
	}

	resume := func(dir string, c Config) error {
		_, err := RunContext(context.Background(), c, WithCheckpointDir(dir), WithResume(true))
		return err
	}

	t.Run("pristine dir resumes", func(t *testing.T) {
		if err := resume(copyDir(t, seed), cfg); err != nil {
			t.Fatalf("clean resume failed: %v", err)
		}
	})
	t.Run("first frame cut, with frames after it", func(t *testing.T) {
		dir := copyDir(t, seed)
		rewriteLog(t, dir, func(b []byte) []byte { return append(b[:30:30], b[50:]...) })
		if err := resume(dir, cfg); err == nil {
			t.Fatal("truncated checkpoint accepted")
		}
	})
	t.Run("log cut inside its final frame", func(t *testing.T) {
		// the append a crash interrupted: its day sweeps again
		dir := copyDir(t, seed)
		rewriteLog(t, dir, func(b []byte) []byte { return b[:len(b)-5] })
		res, err := RunContext(context.Background(), cfg, WithCheckpointDir(dir), WithResume(true))
		if err != nil {
			t.Fatal(err)
		}
		if res.Report.ResumedDays != 2 || res.Report.CompletedDays != 1 {
			t.Errorf("ResumedDays = %d CompletedDays = %d, want 2 and 1", res.Report.ResumedDays, res.Report.CompletedDays)
		}
		if !bytes.Equal(eventsBytes(t, full), eventsBytes(t, res)) {
			t.Error("resumed run's events differ from the uninterrupted run")
		}
	})
	t.Run("flipped byte", func(t *testing.T) {
		dir := copyDir(t, seed)
		rewriteLog(t, dir, func(b []byte) []byte {
			b[len(b)/2] ^= 0x01
			return b
		})
		if err := resume(dir, cfg); err == nil {
			t.Fatal("bit-flipped checkpoint accepted")
		}
	})
	t.Run("seed mismatch", func(t *testing.T) {
		c := cfg
		c.MeasureSeed++
		if err := resume(copyDir(t, seed), c); err == nil {
			t.Fatal("resume with a different measurement seed accepted")
		}
	})
	t.Run("config mismatch", func(t *testing.T) {
		c := cfg
		c.World.Domains++
		if err := resume(copyDir(t, seed), c); err == nil {
			t.Fatal("resume with a different world accepted")
		}
	})
	t.Run("swapped sealed day", func(t *testing.T) {
		dir := copyDir(t, seed)
		files, err := filepath.Glob(filepath.Join(dir, "days", "day_*.dcol"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no sealed day files under %s/days (err %v)", dir, err)
		}
		b, err := os.ReadFile(files[0])
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)/2] ^= 0x01
		if err := os.WriteFile(files[0], b, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := resume(dir, cfg); !errors.Is(err, daystore.ErrCorrupt) {
			t.Fatalf("resume error = %v, want daystore.ErrCorrupt", err)
		}
	})
	// setLayout rewrites the version header.json records in dir.
	setLayout := func(t *testing.T, dir string, version string) {
		t.Helper()
		hdr := filepath.Join(dir, "header.json")
		b, err := os.ReadFile(hdr)
		if err != nil {
			t.Fatal(err)
		}
		old := bytes.Replace(b, []byte(`"version": 5`), []byte(`"version": `+version), 1)
		if bytes.Equal(old, b) {
			t.Fatalf("header has no version 5 field to rewrite: %s", b)
		}
		if err := os.WriteFile(hdr, old, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("legacy format version", func(t *testing.T) {
		// a journal written before re-seals and per-domain random
		// streams (header version 3) is refused, not re-swept or mixed
		dir := copyDir(t, seed)
		setLayout(t, dir, "3")
		if err := resume(dir, cfg); err == nil || !strings.Contains(err.Error(), "format version") {
			t.Fatalf("resume error = %v, want a format version refusal", err)
		}
	})
	t.Run("layout 4 with gob frames", func(t *testing.T) {
		// a layout-4 journal, whose day log holds version 2 frames of gob
		// payloads (this one journals day 27), is refused by its header;
		// and were the header rewritten, by its first frame
		gobFrame, err := hex.DecodeString("444e53434b5054310000000200000000000000892f7f0301010644617952656601ff800001030103446179010400010446696c65010c000106534841323536010c00000058ff800136010f6461795f3030303032372e64636f6c0140396638366430383138383463376436353961326665616130633535616430313561336266346631623262306238323263643135643663313562306630306130380026973e25")
		if err != nil {
			t.Fatal(err)
		}
		dir := copyDir(t, seed)
		rewriteLog(t, dir, func([]byte) []byte { return gobFrame })
		setLayout(t, dir, "4")
		if err := resume(dir, cfg); err == nil || !strings.Contains(err.Error(), "format version 4") {
			t.Fatalf("resume error = %v, want a format version refusal", err)
		}
		dir = copyDir(t, seed) // the pristine header, over gob frames
		rewriteLog(t, dir, func([]byte) []byte { return gobFrame })
		if err := resume(dir, cfg); err == nil || !strings.Contains(err.Error(), "frame format version 2") {
			t.Fatalf("resume error = %v, want a frame format version refusal", err)
		}
	})
	t.Run("missing header", func(t *testing.T) {
		dir := copyDir(t, seed)
		if err := os.Remove(filepath.Join(dir, "header.json")); err != nil {
			t.Fatal(err)
		}
		if err := resume(dir, cfg); err == nil {
			t.Fatal("headerless directory accepted")
		}
	})
}

// TestWriteFailureStopsFolding: once a day cannot be sealed, the run fails
// with the I/O error and no further day reaches the metrics — the
// WithMetrics registry describes exactly the days that were sealed and
// journaled, even for shards still in flight when the write failed.
func TestWriteFailureStopsFolding(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cfg := resumeConfig()
	cfg.Parallelism = 2
	ckpt, days := t.TempDir(), filepath.Join(t.TempDir(), "days")
	reg := obs.New()
	swept := reg.Histogram("study.day_sweep_wall", obs.Volatile())
	waitFor := func(cond func() bool) {
		for deadline := time.Now().Add(30 * time.Second); !cond() && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
	}

	// Day 27 seals normally. Day 28 waits for that, then swaps the day
	// directory for a regular file, so its own seal fails. Day 29 takes the
	// slot day 27 freed and is held until day 28 has finished sweeping (and
	// a moment more, for its seal to fail): it is the shard that completes
	// after the write error.
	_, err := RunContext(context.Background(), cfg,
		WithCheckpointDir(ckpt), WithDayStoreDir(days), WithMetrics(reg),
		WithBeforeDay(func(d clock.Day) {
			switch d {
			case 28:
				waitFor(func() bool {
					refs, _ := checkpoint.ReadDayRefs(ckpt)
					return len(refs) == 1
				})
				if err := os.Rename(days, days+".sealed"); err != nil {
					panic(err)
				}
				if err := os.WriteFile(days, nil, 0o644); err != nil {
					panic(err)
				}
			case 29:
				waitFor(func() bool { return swept.Snapshot().Count >= 2 })
				time.Sleep(100 * time.Millisecond)
			}
		}))
	if !errors.Is(err, syscall.ENOTDIR) {
		t.Fatalf("run error = %v, want the seal's ENOTDIR", err)
	}

	sealed, err := filepath.Glob(filepath.Join(days+".sealed", "day_*.dcol"))
	if err != nil {
		t.Fatal(err)
	}
	if len(sealed) != 1 || filepath.Base(sealed[0]) != daystore.FileName(27) {
		t.Fatalf("sealed days = %v, want only day 27", sealed)
	}
	sess, err := NewSession(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, want, _, fail := sess.sweepDayAttempt(context.Background(), 27, nil, nil, nil)
	if fail != nil {
		t.Fatal(fail.Reason)
	}
	got := reg.StableSnapshot()
	for name, want := range map[string]int64{"study.sweep.ok": want.OK, "study.sweep.servfail": want.ServFail, "study.sweep.timeout": want.Timeout} {
		if got.Counters[name] != want {
			t.Errorf("%s = %d, want %d: the sealed days' records only", name, got.Counters[name], want)
		}
	}
}
