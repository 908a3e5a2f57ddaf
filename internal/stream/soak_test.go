package stream

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"dnsddos/internal/checkpoint"
	"dnsddos/internal/clock"
	"dnsddos/internal/study"
)

// soak_test.go is the overload soak: the parity harness's study at ten
// times its attack count, its feed streamed from a source that announces
// its watermark once a day, SIGKILLed for real mid-run and resumed from
// the journal. The killed-and-resumed output must be byte-identical to
// an unkilled run.

// soakLoad multiplies the parity harness's attack count.
const soakLoad = 10

// soakSink appends each batch as a JSON line and fsyncs before
// acknowledging, so SinkBytes truncation on resume is sound under
// SIGKILL. The per-emit delay keeps the emission phase long enough for
// the parent's kill to land mid-drain.
type soakSink struct {
	f     *os.File
	off   int64
	delay time.Duration
}

func (s *soakSink) Emit(b Batch) error {
	frame, err := json.Marshal(b)
	if err != nil {
		return err
	}
	frame = append(frame, '\n')
	if _, err := s.f.WriteAt(frame, s.off); err != nil {
		return err
	}
	if err := s.f.Sync(); err != nil {
		return err
	}
	s.off += int64(len(frame))
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	return nil
}

func (s *soakSink) Offset() int64 { return s.off }

// TestOverloadSoakHelper is not a test: it is the victim process the
// soak spawns (re-exec helper pattern). It streams the feed of the
// harness's study at soakLoad times its attacks into dir/out.bin with a
// journal, resuming when STREAM_SOAK_RESUME is set.
func TestOverloadSoakHelper(t *testing.T) {
	dir := os.Getenv("STREAM_SOAK_DIR")
	if dir == "" {
		t.Skip("helper process entry point, not a test")
	}
	resume := os.Getenv("STREAM_SOAK_RESUME") == "1"

	cfg := harnessConfig()
	cfg.Attacks.TotalAttacks *= soakLoad
	s, err := study.RunContext(context.Background(), cfg, study.WithSkipJoin())
	if err != nil {
		t.Fatal(err)
	}

	hash, err := study.ConfigHash(s.Config)
	if err != nil {
		t.Fatal(err)
	}
	hdr := checkpoint.Header{ConfigHash: hash, Seed: s.Config.MeasureSeed}
	ckptDir := filepath.Join(dir, "ckpt")
	var jd *checkpoint.Dir
	if resume {
		jd, err = checkpoint.Resume(ckptDir, hdr)
	} else {
		jd, err = checkpoint.Create(ckptDir, hdr)
	}
	if err != nil {
		t.Fatal(err)
	}

	outPath := filepath.Join(dir, "out.bin")
	f, err := os.OpenFile(outPath, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sink := &soakSink{f: f, delay: 2 * time.Millisecond}

	p, err := New(s.Pipeline, sink, WithRSDoS(s.Config.RSDoS), WithLateness(1), WithJournal(jd))
	if err != nil {
		t.Fatal(err)
	}
	if cur, ok := p.Resumed(); ok {
		// drop the accepted-but-unjournaled tail a SIGKILL may have left
		if err := f.Truncate(cur.SinkBytes); err != nil {
			t.Fatal(err)
		}
		sink.off = cur.SinkBytes
	}
	if _, err := deliver(p, daily(collectFeed(s.Session()))); err != nil {
		t.Fatal(err)
	}
	os.Exit(0)
}

// daily is the feed as a source delivers it that announces its watermark
// once a day, at the first window of the day the feed's watermark has
// reached: each close finalizes a day's worth of attacks, so a run is a
// few hundred batches, each synced and journaled, however many attacks
// the feed holds.
func daily(feed []step) []step {
	out := make([]step, 0, len(feed))
	last := clock.Window(math.MinInt64)
	for _, s := range feed {
		if s.o == nil {
			if s.w = s.w.Day().FirstWindow(); s.w <= last {
				continue
			}
			last = s.w
		}
		out = append(out, s)
	}
	return out
}

func runSoakHelper(t *testing.T, dir string, resume bool) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=TestOverloadSoakHelper$")
	cmd.Env = append(os.Environ(), "STREAM_SOAK_DIR="+dir)
	if resume {
		cmd.Env = append(cmd.Env, "STREAM_SOAK_RESUME=1")
	}
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
		if t.Failed() && out.Len() > 0 {
			t.Logf("helper output:\n%s", out.String())
		}
	})
	return cmd
}

// TestOverloadSoakKillResume: the acceptance soak. An unkilled run at
// soakLoad times the harness's attacks is the reference; a second run is
// SIGKILLed mid-emission and resumed, and must converge to the same
// bytes.
func TestOverloadSoakKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("soak: spawns subprocess study runs")
	}

	// reference: unkilled run
	refDir := t.TempDir()
	ref := runSoakHelper(t, refDir, false)
	if err := ref.Wait(); err != nil {
		t.Fatalf("reference soak run failed: %v", err)
	}
	refBytes, err := os.ReadFile(filepath.Join(refDir, "out.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if len(refBytes) == 0 {
		t.Fatal("reference soak emitted nothing")
	}

	// victim: kill once a third of the reference output has been emitted
	killDir := t.TempDir()
	victim := runSoakHelper(t, killDir, false)
	outPath := filepath.Join(killDir, "out.bin")
	threshold := int64(len(refBytes) / 3)
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if fi, err := os.Stat(outPath); err == nil && fi.Size() >= threshold {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("victim never reached the kill threshold")
		}
		if victim.ProcessState != nil {
			t.Fatal("victim exited before the kill threshold was reached")
		}
		time.Sleep(time.Millisecond)
	}
	victim.Process.Kill() // SIGKILL: no deferred cleanup, no flush
	victim.Wait()
	if victim.ProcessState.Success() {
		t.Fatal("victim completed before the SIGKILL landed — nothing was proven")
	}
	killedSize, _ := os.Stat(outPath)
	if killedSize.Size() >= int64(len(refBytes)) {
		t.Fatal("victim had already emitted everything at kill time")
	}

	// resume in the same directory; must converge to the reference bytes
	res := runSoakHelper(t, killDir, true)
	if err := res.Wait(); err != nil {
		t.Fatalf("resumed soak run failed: %v", err)
	}
	gotBytes, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes, refBytes) {
		t.Fatalf("killed+resumed output (%d bytes) differs from unkilled run (%d bytes) — not exactly-once",
			len(gotBytes), len(refBytes))
	}
}
