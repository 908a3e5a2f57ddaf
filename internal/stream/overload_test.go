package stream

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"dnsddos/internal/checkpoint"
	"dnsddos/internal/netx"
	"dnsddos/internal/obs"
	"dnsddos/internal/packet"
	"dnsddos/internal/rsdos"
	"dnsddos/internal/study"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// throttledOverload builds an Overload that forces a deep backlog on the
// given trace: roughly drains emission steps total, so most closed
// windows queue (and spill) until Close drains them.
func throttledOverload(traceLen int, spillDir string) Overload {
	return Overload{
		MaxBacklog: 1 << 20, // never pause; spill is the pressure valve
		HighWater:  8,
		SpillDir:   spillDir,
		Policy:     ShedNone,
		DrainEvery: traceLen / 40,
	}
}

// TestOverloadSpillParity: with shedding off, a throttled pipeline that
// spills most of its backlog to disk emits byte-identical batches to the
// plain in-memory pipeline, and the in-memory queue never exceeds the
// high-water mark.
func TestOverloadSpillParity(t *testing.T) {
	s := testStudy(t)
	trace := collectTrace(s, 0)

	plain := &memSink{}
	p0, err := New(s.Telescope, s.Pipeline, plain, WithRSDoS(s.Config.RSDoS), WithLateness(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := feed(p0, trace); err != nil {
		t.Fatal(err)
	}

	spillDir := t.TempDir()
	ov := throttledOverload(len(trace), spillDir)
	sink := &memSink{}
	p, err := New(s.Telescope, s.Pipeline, sink,
		WithRSDoS(s.Config.RSDoS), WithLateness(1), WithOverload(ov))
	if err != nil {
		t.Fatal(err)
	}
	if err := feed(p, trace); err != nil {
		t.Fatal(err)
	}
	st := p.Overload()
	if st.SpilledBatches == 0 {
		t.Fatal("throttled run never spilled — the spill tier is untested")
	}
	if st.MaxMemBatches > ov.HighWater {
		t.Fatalf("in-memory backlog reached %d batches, high water is %d", st.MaxMemBatches, ov.HighWater)
	}
	if st.OffersRejected != 0 {
		t.Fatalf("shedding disabled but %d offers rejected", st.OffersRejected)
	}
	if !reflect.DeepEqual(sink.batches, plain.batches) {
		t.Fatalf("spilled run emitted %d batches differing from plain run's %d — spill broke emission parity",
			len(sink.batches), len(plain.batches))
	}
	if !bytes.Equal(gobBytes(t, sink.batches), gobBytes(t, plain.batches)) {
		t.Fatal("spilled run emission not byte-identical to plain run")
	}
	// the spill file is scratch: gone after Close
	if _, err := os.Stat(filepath.Join(spillDir, "stream-backlog.spill")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("spill file survived Close: %v", err)
	}
}

// TestSpilledBatchRoundTrip: a batch that went through the spill file is
// the batch that was pushed — an ICMP observation's nil port list included,
// with no repair on the way back in.
func TestSpilledBatchRoundTrip(t *testing.T) {
	batch := closedBatch{CT: 7, Obs: []rsdos.WindowObs{
		{Window: 6, Victim: netx.MustParseAddr("192.0.2.1"), Proto: packet.ProtoICMP, Packets: 40, PeakPPM: 12, Slash16: 9, UniqueDsts: 40},
		{Window: 7, Victim: netx.MustParseAddr("192.0.2.2"), Proto: packet.ProtoTCP, Packets: 90, PeakPPM: 30, Slash16: 20, UniqueDsts: 88,
			Ports: []rsdos.PortCount{{Port: 53, N: 50}, {Port: 443, N: 40}}},
	}}
	q := newBacklogQueue(1, t.TempDir())
	defer q.close()
	for i := 0; i < 2; i++ { // the first stays in memory, the second spills
		if err := q.push(batch); err != nil {
			t.Fatal(err)
		}
	}
	if q.memLen() != 1 || q.spilledLen() != 1 {
		t.Fatalf("queue holds %d batches in memory and %d on disk, want one of each", q.memLen(), q.spilledLen())
	}
	for _, from := range []string{"memory", "the spill file"} {
		got, ok, err := q.pop()
		if err != nil || !ok {
			t.Fatalf("pop from %s: %v %v", from, ok, err)
		}
		if !reflect.DeepEqual(got, batch) {
			t.Errorf("batch from %s:\n got %+v\nwant %+v", from, got, batch)
		}
	}
}

// shedFeed drives a trace through an overloaded pipeline, treating
// backpressure as shed-and-continue (what a replay caller does).
func shedFeed(t *testing.T, p *Pipeline, trace []tracePkt) {
	t.Helper()
	for _, tp := range trace {
		if _, err := p.Offer(tp.ts, tp.p); err != nil && !errors.Is(err, ErrBackpressure) {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOverloadShedDeterministic: with admission control and sampling
// enabled, two identical runs shed the exact same packets — same
// counters, same emission bytes.
func TestOverloadShedDeterministic(t *testing.T) {
	s := testStudy(t)
	// a jittered trace gives the late-shedding rung out-of-order packets
	// to act on; lateness 2 would absorb the jitter were nothing shed
	trace := collectTrace(s, 2)
	// stream-time admission at half the trace's average arrival rate, a
	// tight ladder, and a throttled drain: every rung engages
	dur := trace[len(trace)-1].ts.Sub(trace[0].ts).Seconds()
	ov := Overload{
		MaxBacklog:  16,
		Policy:      ShedSample,
		AdmitRate:   float64(len(trace)) / dur / 2,
		SampleEvery: 3,
		DrainEvery:  len(trace) / 40,
	}
	run := func() (OverloadStats, []Batch) {
		sink := &memSink{}
		p, err := New(s.Telescope, s.Pipeline, sink,
			WithRSDoS(s.Config.RSDoS), WithLateness(2), WithOverload(ov))
		if err != nil {
			t.Fatal(err)
		}
		shedFeed(t, p, trace)
		return p.Overload(), sink.batches
	}
	st1, b1 := run()
	st2, b2 := run()
	if st1.AdmitDenied == 0 {
		t.Error("admission bucket never denied — rate gate untested")
	}
	if st1.ShedLate == 0 && st1.SampledOut == 0 && st1.Paused == 0 {
		t.Error("no ladder rung engaged — ladder untested")
	}
	if st1 != st2 {
		t.Fatalf("shed counters differ between identical runs:\n  %+v\n  %+v", st1, st2)
	}
	if !bytes.Equal(gobBytes(t, b1), gobBytes(t, b2)) {
		t.Fatal("identical shedding runs emitted different bytes")
	}
}

// TestOverloadBackpressureAndRecovery: a full backlog refuses intake
// with ErrBackpressure (without consuming the packet or wedging the
// stream), keeps draining on later calls, and Close still flushes
// everything. The teardown leaks no goroutines even with the spill file
// open mid-backlog.
func TestOverloadBackpressureAndRecovery(t *testing.T) {
	netx.NoGoroutineLeaks(t)
	s := testStudy(t)
	trace := collectTrace(s, 0)
	spillDir := t.TempDir()
	ov := Overload{
		MaxBacklog: 12,
		HighWater:  4,
		SpillDir:   spillDir,
		Policy:     ShedNone,
		DrainEvery: 1 << 30, // never drain during Offer: force the hard bound
	}
	sink := &memSink{}
	p, err := New(s.Telescope, s.Pipeline, sink,
		WithRSDoS(s.Config.RSDoS), WithLateness(1), WithOverload(ov))
	if err != nil {
		t.Fatal(err)
	}
	var paused int64
	for _, tp := range trace {
		_, err := p.Offer(tp.ts, tp.p)
		if errors.Is(err, ErrBackpressure) {
			paused++
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if paused == 0 {
		t.Fatal("a 12-batch bound on a day-long trace never paused")
	}
	st := p.Overload()
	if st.Paused != paused {
		t.Fatalf("Paused = %d, caller saw %d ErrBackpressure", st.Paused, paused)
	}
	if st.SpilledBatches == 0 {
		t.Fatal("high water 4 with a 12-batch backlog never spilled")
	}
	if got := len(sink.batches); got != 0 {
		t.Fatalf("nothing should have drained before Close, sink has %d batches", got)
	}
	// Close mid-backlog: everything queued still comes out, in order
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if len(sink.batches) == 0 {
		t.Fatal("Close flushed nothing")
	}
	for i := 1; i < len(sink.batches); i++ {
		if sink.batches[i].ClosedThrough <= sink.batches[i-1].ClosedThrough {
			t.Fatalf("batch %d out of order after backpressure drain", i)
		}
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
		WithRSDoS(s.Config.RSDoS), WithLateness(1), WithJournal(dir), WithResume())
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

// TestOverloadMetricsKeys pins the overload.* instrument set (plus the
// rejected-offers counter) against a golden key list, all volatile.
func TestOverloadMetricsKeys(t *testing.T) {
	s := testStudy(t)
	trace := collectTrace(s, 0)
	reg := obs.New()
	dur := trace[len(trace)-1].ts.Sub(trace[0].ts).Seconds()
	ov := Overload{
		MaxBacklog:  16,
		HighWater:   4,
		SpillDir:    t.TempDir(),
		Policy:      ShedSample,
		AdmitRate:   float64(len(trace)) / dur / 2,
		SampleEvery: 3,
		DrainEvery:  len(trace) / 40,
	}
	p, err := New(s.Telescope, s.Pipeline, &memSink{},
		WithRSDoS(s.Config.RSDoS), WithLateness(1), WithMetrics(reg), WithOverload(ov))
	if err != nil {
		t.Fatal(err)
	}
	shedFeed(t, p, trace)

	snap := reg.Snapshot()
	var keys []string
	for name := range snap.Counters {
		if strings.HasPrefix(name, "overload.") || name == "stream.offers_rejected" {
			keys = append(keys, name)
		}
	}
	for name := range snap.Gauges {
		if strings.HasPrefix(name, "overload.") {
			keys = append(keys, name)
		}
	}
	sort.Strings(keys)
	got := strings.Join(keys, "\n") + "\n"

	golden := filepath.Join("testdata", "overload_metrics_keys.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("overload metric keys changed:\ngot:\n%swant:\n%s(run with -update to accept)", got, want)
	}
	// overload instrumentation is volatile: absent from stable snapshots
	stable := reg.StableSnapshot()
	for name := range stable.Counters {
		if strings.HasPrefix(name, "overload.") {
			t.Errorf("volatile counter %q leaked into StableSnapshot", name)
		}
	}
	for name := range stable.Gauges {
		if strings.HasPrefix(name, "overload.") {
			t.Errorf("volatile gauge %q leaked into StableSnapshot", name)
		}
	}
}
