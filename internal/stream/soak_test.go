package stream

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"dnsddos/internal/checkpoint"
	"dnsddos/internal/packet"
	"dnsddos/internal/study"
)

// soak_test.go is the overload soak: a 10× replay (ten times the parity
// trace's packet rate), SIGKILLed for real mid-run and resumed from the
// journal. The killed-and-resumed output must be byte-identical to an
// unkilled run.

const soakRate = 0.03 // 10× the 0.003 parity-trace rate

// soakSink appends each batch as a checkpoint frame and fsyncs before
// acknowledging, so SinkBytes truncation on resume is sound under
// SIGKILL. The per-emit delay keeps the emission phase long enough for
// the parent's kill to land mid-drain.
type soakSink struct {
	f     *os.File
	off   int64
	delay time.Duration
}

func (s *soakSink) Emit(b Batch) error {
	frame, err := checkpoint.EncodeFrame(&b)
	if err != nil {
		return err
	}
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
// soak spawns (re-exec helper pattern). It replays the 10× trace into
// dir/out.bin with a journal, resuming when STREAM_SOAK_RESUME is set.
func TestOverloadSoakHelper(t *testing.T) {
	dir := os.Getenv("STREAM_SOAK_DIR")
	if dir == "" {
		t.Skip("helper process entry point, not a test")
	}
	resume := os.Getenv("STREAM_SOAK_RESUME") == "1"

	s := testStudy(t)
	cfg := traceConfig(0)
	cfg.Rate = soakRate
	var trace []tracePkt
	Replay(cfg, s.Schedule.Sched, s.Telescope, func(ts time.Time, p packet.Packet) bool {
		trace = append(trace, tracePkt{ts, p})
		return true
	})

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

	p, err := New(s.Telescope, s.Pipeline, sink, WithRSDoS(s.Config.RSDoS), WithLateness(1), WithJournal(jd))
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
	if err := feed(p, trace); err != nil {
		t.Fatal(err)
	}
	os.Exit(0)
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

// TestOverloadSoakKillResume: the acceptance soak. An unkilled 10×
// overload run is the reference; a second run is SIGKILLed mid-emission
// and resumed, and must converge to the same bytes.
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
