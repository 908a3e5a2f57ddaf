package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// trace.go records spans around the benchmark's own calls into each
// layer. Spans live in memory and are written once, when the run ends, as
// Chrome trace-event JSON (load it in chrome://tracing or Perfetto). A
// nil *tracer records nothing, which is how the untraced pass runs the
// same code.

// noSpan is the parent of a top-level span and what a nil tracer returns.
const noSpan = -1

type span struct {
	name       string
	start, end time.Duration // since tracer.t0
	parent     int           // index of the causing span, or noSpan
	run        int           // spans of one operation share it
}

type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, run int) int {
	if t == nil {
		return noSpan
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, start: now, end: -1, parent: parent, run: run})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

// end closes a span opened by begin and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].end = now
	d := now - t.spans[id].start
	t.mu.Unlock()
	return d
}

// child records a span whose duration was measured some other way — the
// sum of many short calls that would cost more to span than to run — as a
// child starting offset after its parent starts.
func (t *tracer) child(name string, parent int, offset, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	p := t.spans[parent]
	t.spans = append(t.spans, span{name: name, start: p.start + offset, end: p.start + offset + d, parent: parent, run: p.run})
	t.mu.Unlock()
}

func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// perRun sums, for every run, span durations by name: total time and
// self time (the span minus the part its child spans cover).
func (t *tracer) perRun() (total, self map[int]map[string]time.Duration) {
	total = make(map[int]map[string]time.Duration)
	self = make(map[int]map[string]time.Duration)
	if t == nil {
		return total, self
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent != noSpan && s.end >= 0 {
			children[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		if total[s.run] == nil {
			total[s.run] = make(map[string]time.Duration)
			self[s.run] = make(map[string]time.Duration)
		}
		d := s.end - s.start
		total[s.run][s.name] += d
		self[s.run][s.name] += max(d-children[i], 0)
	}
	return total, self
}

type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// write stores the spans as Chrome trace-event JSON; the span's own id,
// its parent's and its run go in args.
func (t *tracer) write(path string) (err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	first := true
	for i, s := range t.spans {
		if s.end < 0 {
			continue
		}
		b, err := json.Marshal(traceEvent{
			Name: s.name, Ph: "X",
			TS:  float64(s.start) / 1e3,
			Dur: float64(s.end-s.start) / 1e3,
			PID: 1, TID: s.run,
			Args: map[string]int{"id": i, "parent": s.parent, "run": s.run},
		})
		if err != nil {
			return err
		}
		if !first {
			w.WriteByte(',')
		}
		first = false
		w.WriteByte('\n')
		w.Write(b)
	}
	fmt.Fprint(w, "\n]}\n")
	return w.Flush()
}
