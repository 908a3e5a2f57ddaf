package stream

import (
	"fmt"
	"os"

	"dnsddos/internal/report"
)

// FileSink is the production Sink: it appends joined events to a CSV file
// (report.EventsCSV's format) batch by batch, syncs after every batch, and
// tracks the byte offset after each accepted batch — the stream journals
// it so a resumed run can truncate a torn write from a crash.
type FileSink struct {
	f   *os.File // nil when writing to stdout
	off int64
	// what the accepted batches held, for the caller's summary
	Batches int
	Attacks int
	Events  int64
}

// NewFileSink opens (creating, never truncating) the file at path; an
// empty path writes to stdout, which cannot resume. A fresh run starts
// with WriteHeader, a resumed one with TruncateTo.
func NewFileSink(path string) (*FileSink, error) {
	if path == "" {
		return &FileSink{}, nil
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	return &FileSink{f: f}, nil
}

// WriteHeader empties the file and writes the CSV header row.
func (s *FileSink) WriteHeader() error {
	if s.f == nil {
		return report.EventsCSVHeader(os.Stdout)
	}
	if err := s.f.Truncate(0); err != nil {
		return err
	}
	if _, err := s.f.Seek(0, 0); err != nil {
		return err
	}
	if err := report.EventsCSVHeader(s.f); err != nil {
		return err
	}
	return s.sync()
}

// TruncateTo discards everything past the journaled offset (Cursor's
// SinkBytes) — a batch the sink half-wrote when the previous run died was
// never journaled and will be re-emitted.
func (s *FileSink) TruncateTo(off int64) error {
	if s.f == nil {
		return fmt.Errorf("stream: resume needs a file sink")
	}
	if err := s.f.Truncate(off); err != nil {
		return err
	}
	if _, err := s.f.Seek(off, 0); err != nil {
		return err
	}
	s.off = off
	return nil
}

// Emit appends the batch's rows and syncs them.
func (s *FileSink) Emit(b Batch) error {
	w := os.Stdout
	if s.f != nil {
		w = s.f
	}
	if err := report.EventsCSVRows(w, b.Events); err != nil {
		return err
	}
	if err := s.sync(); err != nil {
		return err
	}
	s.Batches++
	s.Attacks += len(b.Attacks)
	s.Events += int64(len(b.Events))
	return nil
}

// Offset implements OffsetSink: the durable size after the last
// accepted batch.
func (s *FileSink) Offset() int64 { return s.off }

func (s *FileSink) sync() error {
	if s.f == nil {
		return nil
	}
	if err := s.f.Sync(); err != nil {
		return err
	}
	off, err := s.f.Seek(0, 1)
	if err != nil {
		return err
	}
	s.off = off
	return nil
}

// Close syncs whatever the last Emit left, then closes the file,
// returning the first failure; a second Close does nothing. The signal
// path closes the sink before the run reports its journal frontier, so
// the cursor never claims bytes the sink has not durably written.
func (s *FileSink) Close() error {
	if s.f == nil {
		return nil
	}
	err := s.sync()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	return err
}
