package stream

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"dnsddos/internal/checkpoint"
	"dnsddos/internal/clock"
	"dnsddos/internal/core"
	"dnsddos/internal/obs"
	"dnsddos/internal/packet"
	"dnsddos/internal/rsdos"
	"dnsddos/internal/study"
)

// The harness: one scaled-down study.RunContext run (world, sweeps, join
// pipeline — the batch reference), shared across tests, plus a seeded
// packet trace replayed from the study's own attack schedule. The batch
// path aggregates + infers + joins the trace in one pass; the stream
// consumes it packet by packet. The two must agree byte for byte.

var (
	harnessOnce sync.Once
	harness     *study.Study
	harnessErr  error
)

const traceDay = clock.Day(29)

func testStudy(t *testing.T) *study.Study {
	t.Helper()
	if testing.Short() {
		t.Skip("stream integration: runs a multi-day study sweep")
	}
	harnessOnce.Do(func() {
		cfg := study.QuickConfig()
		cfg.World.Domains = 4000
		cfg.Attacks.TotalAttacks = 3000
		// the generated mix has 1.3% DNS-infra targets; concentrate the
		// schedule on DNS victims so a one-day trace carries join events
		cfg.Attacks.DNSShare = 0.5
		cfg.FromDay, cfg.ToDay = traceDay-1, traceDay+1
		harness, harnessErr = study.RunContext(context.Background(), cfg, study.WithSkipJoin())
	})
	if harnessErr != nil {
		t.Fatalf("building study harness: %v", harnessErr)
	}
	if len(harness.Events) != 0 || len(harness.Classified) != 0 {
		t.Fatal("WithSkipJoin ran the batch join anyway")
	}
	return harness
}

type tracePkt struct {
	ts time.Time
	p  packet.Packet
}

func traceConfig(jitter int) TraceConfig {
	return TraceConfig{
		Seed:          99,
		Rate:          0.003,
		From:          traceDay.FirstWindow(),
		To:            (traceDay + 1).FirstWindow() - 1,
		JitterWindows: jitter,
	}
}

func collectTrace(s *study.Study, jitter int) []tracePkt {
	var out []tracePkt
	Replay(traceConfig(jitter), s.Schedule.Sched, s.Telescope, func(ts time.Time, p packet.Packet) bool {
		out = append(out, tracePkt{ts, p})
		return true
	})
	return out
}

// batchRun is the reference: aggregate the whole trace, infer the feed,
// join it in one EventsContext pass.
func batchRun(t *testing.T, s *study.Study, trace []tracePkt) ([]rsdos.WindowObs, []rsdos.Attack, []core.Event) {
	t.Helper()
	wd := rsdos.NewWindower(s.Telescope, 0)
	for _, tp := range trace {
		wd.Add(tp.ts, tp.p)
	}
	if d := wd.LateDrops(); d != 0 {
		t.Fatalf("in-order trace dropped %d packets in the batch aggregation", d)
	}
	obs := wd.CloseAll()
	attacks := rsdos.Infer(s.Config.RSDoS, obs)
	events, err := s.Pipeline.EventsContext(context.Background(), attacks)
	if err != nil {
		t.Fatalf("batch join: %v", err)
	}
	return obs, attacks, events
}

// memSink collects emitted batches; failAt > 0 makes the Nth Emit fail
// (simulating a crash at the sink boundary).
type memSink struct {
	batches []Batch
	failAt  int
	bytes   int64
}

var errSinkDown = errors.New("sink down")

func (s *memSink) Emit(b Batch) error {
	if s.failAt > 0 && len(s.batches)+1 == s.failAt {
		return errSinkDown
	}
	s.batches = append(s.batches, b)
	s.bytes += int64(16 + 8*len(b.Windows) + 24*len(b.Attacks) + 32*len(b.Events))
	return nil
}

func (s *memSink) Offset() int64 { return s.bytes }

func (s *memSink) flatten() ([]rsdos.Attack, []core.Event) {
	var attacks []rsdos.Attack
	var events []core.Event
	for _, b := range s.batches {
		attacks = append(attacks, b.Attacks...)
		events = append(events, b.Events...)
	}
	return attacks, events
}

func feed(p *Pipeline, trace []tracePkt) error {
	for _, tp := range trace {
		if _, err := p.Offer(tp.ts, tp.p); err != nil {
			return err
		}
	}
	return p.Close()
}

func gobBytes(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("gob: %v", err)
	}
	return buf.Bytes()
}

// TestStreamBatchParity is the tentpole acceptance: streaming a seeded
// packet trace produces byte-identical impact events to the batch run,
// for the in-order trace and for a jittered one absorbed by the lateness
// allowance.
func TestStreamBatchParity(t *testing.T) {
	s := testStudy(t)
	inorder := collectTrace(s, 0)
	if len(inorder) == 0 {
		t.Fatal("empty trace — nothing to prove parity over")
	}
	batchObs, batchAttacks, batchEvents := batchRun(t, s, inorder)
	if len(batchAttacks) == 0 {
		t.Fatal("trace inferred no attacks — raise TraceConfig.Rate")
	}
	if len(batchEvents) == 0 {
		t.Fatal("trace joined no events — the parity would be vacuous")
	}

	cases := []struct {
		name     string
		jitter   int
		lateness int
	}{
		{"in-order/lateness-1", 0, 1},
		{"jittered/lateness-2", 2, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			trace := collectTrace(s, tc.jitter)
			if len(trace) != len(inorder) {
				t.Fatalf("jitter changed the packet set: %d vs %d packets", len(trace), len(inorder))
			}
			sink := &memSink{}
			p, err := New(s.Telescope, s.Pipeline, sink,
				WithRSDoS(s.Config.RSDoS), WithLateness(tc.lateness))
			if err != nil {
				t.Fatal(err)
			}
			maxLag := int64(0)
			for _, tp := range trace {
				ok, err := p.Offer(tp.ts, tp.p)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					t.Fatalf("lateness %d dropped a packet of a %d-window-jittered trace", tc.lateness, tc.jitter)
				}
				if l := p.LagWindows(); l > maxLag {
					maxLag = l
				}
			}
			if bound := int64(tc.lateness + 1); maxLag > bound {
				t.Errorf("lag reached %d windows, bound is %d", maxLag, bound)
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}

			var streamObs []rsdos.WindowObs
			for i, b := range sink.batches {
				if i > 0 && b.ClosedThrough <= sink.batches[i-1].ClosedThrough {
					t.Fatalf("batch %d frontier %v not past %v", i, b.ClosedThrough, sink.batches[i-1].ClosedThrough)
				}
				streamObs = append(streamObs, b.Windows...)
			}
			if !reflect.DeepEqual(streamObs, batchObs) {
				t.Fatalf("streamed window observations diverge from batch aggregation (%d vs %d obs)",
					len(streamObs), len(batchObs))
			}
			attacks, events := sink.flatten()
			canonAttacks, canonEvents := Canonicalize(attacks, events)
			if !reflect.DeepEqual(canonAttacks, batchAttacks) {
				t.Fatalf("canonicalized stream attacks != batch feed (%d vs %d)", len(canonAttacks), len(batchAttacks))
			}
			if !bytes.Equal(gobBytes(t, canonEvents), gobBytes(t, batchEvents)) {
				t.Fatalf("stream events not byte-identical to batch events (%d vs %d events)",
					len(canonEvents), len(batchEvents))
			}
		})
	}
}

// TestStreamKillResume is the exactly-once acceptance: kill the stream at
// the sink boundary mid-trace, resume from the journal, and the
// concatenation of the two runs' emissions equals an uninterrupted run —
// every window exactly once. The admission row refuses half the trace:
// the resumed replay must rebuild the gate's refusals along with the
// windows.
func TestStreamKillResume(t *testing.T) {
	s := testStudy(t)
	trace := collectTrace(s, 0)
	hash, err := study.ConfigHash(s.Config)
	if err != nil {
		t.Fatal(err)
	}
	hdr := checkpoint.Header{ConfigHash: hash, Seed: s.Config.MeasureSeed}

	for _, tc := range []struct {
		name string
		ov   Overload
	}{
		{"plain", Overload{}},
		{"admission", halfRateAdmission(trace)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := func(more ...Option) []Option {
				return append([]Option{WithRSDoS(s.Config.RSDoS), WithLateness(1), WithOverload(tc.ov)}, more...)
			}
			full := &memSink{}
			p, err := New(s.Telescope, s.Pipeline, full, opts()...)
			if err != nil {
				t.Fatal(err)
			}
			if err := feed(p, trace); err != nil {
				t.Fatal(err)
			}
			if len(full.batches) < 3 {
				t.Fatalf("only %d batches — too few to kill mid-run", len(full.batches))
			}
			if denied := p.Overload().AdmitDenied; (tc.ov.AdmitRate > 0) != (denied > 0) {
				t.Fatalf("admit rate %g denied %d packets", tc.ov.AdmitRate, denied)
			}

			dir, err := checkpoint.Create(t.TempDir(), hdr)
			if err != nil {
				t.Fatal(err)
			}
			killAt := len(full.batches)/2 + 1
			crash := &memSink{failAt: killAt}
			p1, err := New(s.Telescope, s.Pipeline, crash, opts(WithJournal(dir))...)
			if err != nil {
				t.Fatal(err)
			}
			if err := feed(p1, trace); !errors.Is(err, errSinkDown) {
				t.Fatalf("feed survived the sink failure: %v", err)
			}
			if len(crash.batches) != killAt-1 {
				t.Fatalf("sink holds %d batches, expected %d before the crash", len(crash.batches), killAt-1)
			}
			cur, ok, err := dir.LoadCursor()
			if err != nil || !ok {
				t.Fatalf("no cursor after crash: ok=%v err=%v", ok, err)
			}
			if want := crash.batches[len(crash.batches)-1].ClosedThrough; cur.ClosedThrough != want {
				t.Fatalf("cursor frontier %v, last durable batch %v", cur.ClosedThrough, want)
			}
			if cur.SinkBytes != crash.Offset() {
				t.Fatalf("cursor sink offset %d, sink reports %d", cur.SinkBytes, crash.Offset())
			}

			resumed := &memSink{bytes: cur.SinkBytes} // sink repositioned at the journaled offset
			p2, err := New(s.Telescope, s.Pipeline, resumed, opts(WithJournal(dir))...)
			if err != nil {
				t.Fatal(err)
			}
			if rc, ok := p2.Resumed(); !ok || rc != cur {
				t.Fatalf("Resumed() = %+v, %v; want the journaled cursor", rc, ok)
			}
			if err := feed(p2, trace); err != nil {
				t.Fatalf("resumed run: %v", err)
			}

			got := append(append([]Batch{}, crash.batches...), resumed.batches...)
			if !reflect.DeepEqual(got, full.batches) {
				t.Fatalf("crash+resume emitted %d batches, uninterrupted run %d — not exactly-once",
					len(got), len(full.batches))
			}
			// frontier strictly advances across the seam: nothing re-emitted
			for i := 1; i < len(got); i++ {
				if got[i].ClosedThrough <= got[i-1].ClosedThrough {
					t.Fatalf("batch %d re-emitted frontier %v", i, got[i].ClosedThrough)
				}
			}
			endCur, ok, err := dir.LoadCursor()
			if err != nil || !ok {
				t.Fatalf("cursor after resume: ok=%v err=%v", ok, err)
			}
			var wantEvents int64
			for _, b := range full.batches {
				wantEvents += int64(len(b.Events))
			}
			if endCur.Events != wantEvents {
				t.Errorf("final cursor counts %d events, uninterrupted run emitted %d", endCur.Events, wantEvents)
			}
		})
	}
}

// TestCursorSyncBoundaryCrash: a crash after the sink durably accepted a
// batch but before the cursor recorded it must not double-emit on
// resume — the journaled SinkBytes offset lets the sink truncate the
// unjournaled tail, and the replay re-emits exactly that batch.
func TestCursorSyncBoundaryCrash(t *testing.T) {
	s := testStudy(t)
	trace := collectTrace(s, 0)

	full := &memSink{}
	p0, err := New(s.Telescope, s.Pipeline, full, WithRSDoS(s.Config.RSDoS), WithLateness(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := feed(p0, trace); err != nil {
		t.Fatal(err)
	}

	hash, err := study.ConfigHash(s.Config)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := checkpoint.Create(t.TempDir(), checkpoint.Header{ConfigHash: hash, Seed: s.Config.MeasureSeed})
	if err != nil {
		t.Fatal(err)
	}

	killAt := len(full.batches)/2 + 1
	crash := &memSink{}
	p1, err := New(s.Telescope, s.Pipeline, crash,
		WithRSDoS(s.Config.RSDoS), WithLateness(1), WithJournal(dir))
	if err != nil {
		t.Fatal(err)
	}
	errBoundary := errors.New("killed at accept/sync boundary")
	p1.hookAfterEmit = func() error {
		if len(crash.batches) == killAt {
			return errBoundary
		}
		return nil
	}
	if err := feed(p1, trace); !errors.Is(err, errBoundary) {
		t.Fatalf("feed survived the boundary kill: %v", err)
	}
	// the sink holds one more batch than the cursor acknowledges
	cur, ok, err := dir.LoadCursor()
	if err != nil || !ok {
		t.Fatalf("no cursor after boundary crash: ok=%v err=%v", ok, err)
	}
	if len(crash.batches) != killAt {
		t.Fatalf("sink holds %d batches, expected %d", len(crash.batches), killAt)
	}
	if want := crash.batches[killAt-2].ClosedThrough; cur.ClosedThrough != want {
		t.Fatalf("cursor frontier %v, want the last *journaled* batch %v", cur.ClosedThrough, want)
	}

	// recovery contract: truncate the sink to the journaled offset,
	// dropping the accepted-but-unjournaled batch, then resume
	crash.batches = crash.batches[:killAt-1]
	crash.bytes = cur.SinkBytes
	resumed := &memSink{bytes: cur.SinkBytes}
	p2, err := New(s.Telescope, s.Pipeline, resumed,
		WithRSDoS(s.Config.RSDoS), WithLateness(1), WithJournal(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := feed(p2, trace); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	got := append(append([]Batch{}, crash.batches...), resumed.batches...)
	if !reflect.DeepEqual(got, full.batches) {
		t.Fatalf("boundary crash + resume emitted %d batches, uninterrupted run %d — not exactly-once",
			len(got), len(full.batches))
	}
}

// TestStreamLateDropsAndMetrics: a stream whose lateness is smaller than
// the trace jitter drops late packets (counted, never corrupting output
// order) and surfaces lag/backlog/drops through the registry.
func TestStreamLateDropsAndMetrics(t *testing.T) {
	s := testStudy(t)
	trace := collectTrace(s, 3) // up to 3 windows of disorder
	reg := obs.New()
	sink := &memSink{}
	p, err := New(s.Telescope, s.Pipeline, sink,
		WithRSDoS(s.Config.RSDoS), WithLateness(0), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	accepted := 0
	for _, tp := range trace {
		ok, err := p.Offer(tp.ts, tp.p)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			accepted++
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if p.LateDrops() == 0 {
		t.Fatal("3-window jitter against lateness 0 dropped nothing — the jitter is not exercising lateness")
	}
	if int64(len(trace)-accepted) != p.LateDrops() {
		t.Fatalf("accepted %d of %d but LateDrops = %d", accepted, len(trace), p.LateDrops())
	}
	for i := 1; i < len(sink.batches); i++ {
		if sink.batches[i].ClosedThrough <= sink.batches[i-1].ClosedThrough {
			t.Fatal("late arrivals produced out-of-order emission")
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters["stream.late_drops"]; got != p.LateDrops() {
		t.Errorf("stream.late_drops = %d, want %d", got, p.LateDrops())
	}
	for _, name := range []string{"stream.windows_closed", "stream.batches_emitted"} {
		if snap.Counters[name] <= 0 {
			t.Errorf("counter %s missing or zero", name)
		}
	}
	for _, name := range []string{"stream.watermark", "stream.lag_windows", "stream.backlog_windows", "stream.open_candidates"} {
		if _, okG := snap.Gauges[name]; !okG {
			t.Errorf("gauge %s missing", name)
		}
	}
	if h, okH := snap.Histograms["stream.join_latency"]; !okH || h.Count <= 0 {
		t.Errorf("stream.join_latency histogram missing or empty (present=%v)", okH)
	}
	// live metrics must stay volatile: nothing stream.* in stable snapshots
	stable := reg.StableSnapshot()
	for name := range stable.Counters {
		if len(name) >= 7 && name[:7] == "stream." {
			t.Errorf("volatile counter %q leaked into StableSnapshot", name)
		}
	}
}

// TestStreamResumeDivergenceDetected: resuming against a journal whose
// cursor the replay cannot reproduce is refused, not silently emitted.
func TestStreamResumeDivergenceDetected(t *testing.T) {
	s := testStudy(t)
	trace := collectTrace(s, 0)
	hash, _ := study.ConfigHash(s.Config)
	dir, err := checkpoint.Create(t.TempDir(), checkpoint.Header{ConfigHash: hash, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sink := &memSink{}
	p, err := New(s.Telescope, s.Pipeline, sink, WithRSDoS(s.Config.RSDoS), WithLateness(1), WithJournal(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := feed(p, trace); err != nil {
		t.Fatal(err)
	}
	cur, _, _ := dir.LoadCursor()
	// poison the journal: claim one more attack than the replay produces
	cur.Attacks++
	cur.ClosedThrough = sink.batches[len(sink.batches)/2].ClosedThrough
	if err := dir.WriteCursor(cur); err != nil {
		t.Fatal(err)
	}
	p2, err := New(s.Telescope, s.Pipeline, &memSink{},
		WithRSDoS(s.Config.RSDoS), WithLateness(1), WithJournal(dir))
	if err != nil {
		t.Fatal(err)
	}
	err = feed(p2, trace)
	if err == nil || !contains(err.Error(), "diverged") {
		t.Fatalf("divergent resume not detected: %v", err)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && bytes.Contains([]byte(s), []byte(sub))
}
