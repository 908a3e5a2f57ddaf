package stream

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"dnsddos/internal/checkpoint"
	"dnsddos/internal/study"
)

// tornSink is a FileSink whose process dies inside its failAt-th Emit:
// half a row reaches the file, nothing is synced or journaled.
type tornSink struct {
	*FileSink
	failAt int
}

func (s *tornSink) Emit(b Batch) error {
	if s.Batches+1 == s.failAt {
		if _, err := s.f.WriteString("999999,192.0.2.1,2020-12-"); err != nil {
			return err
		}
		return errSinkDown
	}
	return s.FileSink.Emit(b)
}

// TestFileSinkKillResume is the exactly-once contract over the sink
// cmd/streamjoin runs with: a run killed mid-batch, with bytes in the file
// past the journaled offset, and resumed through TruncateTo leaves a file
// byte-identical to an unkilled run's.
func TestFileSinkKillResume(t *testing.T) {
	s, feed := testStudy(t)
	tmp := t.TempDir()
	open := func(name string) *FileSink {
		fs, err := NewFileSink(filepath.Join(tmp, name))
		if err != nil {
			t.Fatal(err)
		}
		return fs
	}
	read := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join(tmp, name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// stream delivers the feed into sink, from the header row or,
	// resuming, from the journaled offset
	stream := func(sink Sink, fs *FileSink, opts ...Option) error {
		p, err := New(s.Pipeline, sink, append(opts, WithRSDoS(s.Config.RSDoS), WithLateness(1))...)
		if err != nil {
			t.Fatal(err)
		}
		if cur, ok := p.Resumed(); ok {
			err = fs.TruncateTo(cur.SinkBytes)
		} else {
			err = fs.WriteHeader()
		}
		if err != nil {
			t.Fatal(err)
		}
		_, err = deliver(p, feed)
		return err
	}

	full := open("unkilled.csv")
	if err := stream(full, full); err != nil {
		t.Fatal(err)
	}
	if err := full.Close(); err != nil {
		t.Fatal(err)
	}
	if full.Batches < 3 || full.Events == 0 {
		t.Fatalf("%d batches, %d events — too few to kill mid-run", full.Batches, full.Events)
	}
	want := read("unkilled.csv")

	hash, err := study.ConfigHash(s.Config)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := checkpoint.Create(filepath.Join(tmp, "journal"), checkpoint.Header{ConfigHash: hash, Seed: s.Config.MeasureSeed})
	if err != nil {
		t.Fatal(err)
	}
	crash := &tornSink{FileSink: open("killed.csv"), failAt: full.Batches/2 + 1}
	if err := stream(crash, crash.FileSink, WithJournal(dir)); !errors.Is(err, errSinkDown) {
		t.Fatalf("feed survived the sink failure: %v", err)
	}
	crash.f.Close() // the kill: no sync, no FileSink.Close
	cur, ok, err := dir.LoadCursor()
	if err != nil || !ok {
		t.Fatalf("no cursor after crash: ok=%v err=%v", ok, err)
	}
	if torn := read("killed.csv"); int64(len(torn)) <= cur.SinkBytes || !bytes.Equal(torn[:cur.SinkBytes], want[:cur.SinkBytes]) {
		t.Fatalf("killed file holds %d bytes, journaled offset %d: want the unkilled run's prefix and a torn tail", len(torn), cur.SinkBytes)
	}

	resumed := open("killed.csv")
	if err := stream(resumed, resumed, WithJournal(dir)); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if err := resumed.Close(); err != nil {
		t.Fatal(err)
	}
	if got := read("killed.csv"); !bytes.Equal(got, want) {
		t.Errorf("resumed file (%d bytes) differs from the unkilled run's (%d bytes)", len(got), len(want))
	}
	if crash.Batches+resumed.Batches != full.Batches {
		t.Errorf("%d + %d batches across the kill, %d unkilled — not exactly-once", crash.Batches, resumed.Batches, full.Batches)
	}
	if err := (&FileSink{}).TruncateTo(0); err == nil {
		t.Error("a stdout sink accepted TruncateTo")
	}
}
