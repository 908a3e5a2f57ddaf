package stream

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"dnsddos/internal/checkpoint"
	"dnsddos/internal/clock"
	"dnsddos/internal/core"
	"dnsddos/internal/netx"
	"dnsddos/internal/obs"
	"dnsddos/internal/report"
	"dnsddos/internal/rsdos"
	"dnsddos/internal/study"
)

// The harness: one scaled-down study.RunContext run with its join (world,
// sweeps, join pipeline, the batch events — the reference), shared across
// tests, plus the study's own telescope feed, Session.Feed, collected once.
// The stream consumes that feed observation by observation; after
// Canonicalize it must write the batch study's events byte for byte.

var (
	harnessOnce sync.Once
	harness     *study.Study
	harnessFeed []step
	harnessErr  error
)

// harnessConfig is the parity harness's study: QuickConfig's 17 months
// over a 4,000-domain world and 3,000 attacks, concentrated on DNS
// victims so the join has events to emit.
func harnessConfig() study.Config {
	cfg := study.QuickConfig()
	cfg.World.Domains = 4000
	cfg.Attacks.TotalAttacks = 3000
	// the generated mix has 1.3% DNS-infra targets; concentrate the
	// schedule on DNS victims so the join emits hundreds of events
	cfg.Attacks.DNSShare = 0.5
	return cfg
}

func testStudy(t *testing.T) (*study.Study, []step) {
	t.Helper()
	if testing.Short() {
		t.Skip("stream integration: runs a multi-day study sweep")
	}
	harnessOnce.Do(func() {
		harness, harnessErr = study.RunContext(context.Background(), harnessConfig())
		if harnessErr == nil {
			harnessFeed = collectFeed(harness.Session())
		}
	})
	if harnessErr != nil {
		t.Fatalf("building study harness: %v", harnessErr)
	}
	return harness, harnessFeed
}

// step is one event of a delivered feed: an observation, or, when o is
// nil, the source's watermark w.
type step struct {
	o *rsdos.WindowObs
	w clock.Window
}

// collectFeed returns the session's feed in the order Session.Feed emits
// it, each observation a copy.
func collectFeed(sess *study.Session) []step {
	var feed []step
	sess.Feed(func(o *rsdos.WindowObs) {
		c := *o
		c.Ports = slices.Clone(o.Ports)
		feed = append(feed, step{o: &c})
	}, func(w clock.Window) { feed = append(feed, step{w: w}) })
	return feed
}

// delayed is the feed as a source delivers it that holds each observation
// back by up to hold watermark advances, drawn per observation from seed,
// but never behind an earlier observation of its victim. Its watermark
// moves a window at a time — a feed watermark that jumps is delivered as
// the run of windows up to it — so an observation is held back at most
// hold windows of watermark. Before the feed's first watermark, the
// source's is the lowest window it has been handed.
func delayed(feed []step, seed uint64, hold int) []step {
	rng := rand.New(rand.NewPCG(seed, 0xde1a7))
	var out []step
	// held[k % (hold+1)] are the observations due after the k-th advance,
	// in arrival order; due[v] is when v's latest observation is due
	held := make([][]*rsdos.WindowObs, hold+1)
	due := map[netx.Addr]int{}
	advances := 0
	wm, started := clock.Window(math.MaxInt64), false
	for _, s := range feed {
		if o := s.o; o != nil {
			if !started {
				wm = min(wm, o.Window)
			}
			d := max(advances+rng.IntN(hold+1), due[o.Victim])
			due[o.Victim] = d
			if d == advances {
				out = append(out, s)
			} else {
				held[d%(hold+1)] = append(held[d%(hold+1)], o)
			}
			continue
		}
		if !started {
			wm, started = min(wm, s.w), true
		}
		for ; wm < s.w; wm++ {
			advances++
			out = append(out, step{w: wm + 1})
			b := &held[advances%(hold+1)]
			for _, o := range *b {
				out = append(out, step{o: o})
			}
			*b = (*b)[:0]
		}
	}
	// the feed ends: the source hands over what it still holds
	for k := 1; k <= hold; k++ {
		for _, o := range held[(advances+k)%(hold+1)] {
			out = append(out, step{o: o})
		}
	}
	return out
}

// deliver offers the steps to p, then closes it. It returns the
// observations p accepted, in delivery order.
func deliver(p *Pipeline, steps []step) ([]rsdos.WindowObs, error) {
	var accepted []rsdos.WindowObs
	for _, s := range steps {
		if s.o == nil {
			if err := p.Advance(s.w); err != nil {
				return accepted, err
			}
		} else if p.Offer(s.o) {
			accepted = append(accepted, *s.o)
		}
	}
	return accepted, p.Close()
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
	s.bytes += int64(16 + 24*len(b.Attacks) + 32*len(b.Events))
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

func eventsCSV(t *testing.T, events []core.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := report.EventsCSV(&buf, events); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStreamBatchParity is the tentpole acceptance: streaming the study's
// own feed through the study's join pipeline and canonicalizing the
// attack IDs writes the batch study's events CSV byte for byte — for the
// feed delivered in order, and for a delivery that holds each observation
// back up to two watermark advances, which a lateness of two absorbs. At
// lateness one the same delivery drops observations, each counted, and
// the stream's attacks are then Infer's over exactly the observations it
// accepted.
func TestStreamBatchParity(t *testing.T) {
	s, feed := testStudy(t)
	batchCSV := eventsCSV(t, s.Events)
	if len(s.Events) == 0 {
		t.Fatal("the study joined no events — the parity would be vacuous")
	}
	for _, tc := range []struct {
		name     string
		hold     int // watermark advances an observation may be held back; 0: in order
		lateness int
		drops    bool
	}{
		{"in-order/lateness-0", 0, 0, false},
		{"in-order/lateness-1", 0, 1, false},
		{"jittered/lateness-2", 2, 2, false},
		{"jittered/lateness-1", 2, 1, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			steps := feed
			if tc.hold > 0 {
				steps = delayed(feed, 7, tc.hold)
			}
			reg := obs.New()
			sink := &memSink{}
			p, err := New(s.Pipeline, sink, WithRSDoS(s.Config.RSDoS), WithLateness(tc.lateness), WithMetrics(reg))
			if err != nil {
				t.Fatal(err)
			}
			var accepted []rsdos.WindowObs
			offered := 0
			for _, st := range steps {
				if st.o == nil {
					if err := p.Advance(st.w); err != nil {
						t.Fatal(err)
					}
					if l := p.LagWindows(); l > int64(tc.lateness+1) {
						t.Fatalf("lag reached %d windows, bound is %d", l, tc.lateness+1)
					}
					continue
				}
				offered++
				if p.Offer(st.o) {
					accepted = append(accepted, *st.o)
				} else if !tc.drops {
					t.Fatalf("lateness %d dropped an observation of window %d", tc.lateness, st.o.Window)
				}
			}
			if err := p.Close(); err != nil {
				t.Fatal(err)
			}
			for i := 1; i < len(sink.batches); i++ {
				if sink.batches[i].ClosedThrough <= sink.batches[i-1].ClosedThrough {
					t.Fatalf("batch %d frontier %v not past %v", i, sink.batches[i].ClosedThrough, sink.batches[i-1].ClosedThrough)
				}
			}
			attacks, events := Canonicalize(sink.flatten())
			drops := int64(offered - len(accepted))
			counted := reg.Snapshot().Counters
			if p.LateDrops() != drops || p.Overload().OffersRejected != drops || counted["stream.late_drops"] != drops || counted["stream.offers_rejected"] != drops {
				t.Fatalf("%d offers refused; LateDrops %d, OffersRejected %d, stream.late_drops %d, stream.offers_rejected %d",
					drops, p.LateDrops(), p.Overload().OffersRejected, counted["stream.late_drops"], counted["stream.offers_rejected"])
			}
			if tc.drops {
				if drops == 0 {
					t.Fatal("holding observations two advances back at lateness 1 dropped nothing")
				}
				if want := rsdos.Infer(s.Config.RSDoS, accepted); !reflect.DeepEqual(attacks, want) {
					t.Fatalf("the stream's attacks differ from Infer over the %d accepted observations (%d vs %d)", len(accepted), len(attacks), len(want))
				}
				return
			}
			if !reflect.DeepEqual(attacks, s.Attacks) {
				t.Fatalf("canonicalized stream attacks != the study's feed (%d vs %d)", len(attacks), len(s.Attacks))
			}
			if got := eventsCSV(t, events); !bytes.Equal(got, batchCSV) {
				t.Fatalf("stream events CSV (%d events, %d bytes) differs from the study's (%d events, %d bytes)",
					len(events), len(got), len(s.Events), len(batchCSV))
			}
		})
	}
}

// TestStreamKillResume is the exactly-once acceptance: kill the stream at
// the sink boundary mid-feed, resume from the journal, and the
// concatenation of the two runs' emissions equals an uninterrupted run —
// every batch exactly once. The admission row refuses part of the feed:
// the resumed replay must rebuild the gate's refusals along with the
// windows.
func TestStreamKillResume(t *testing.T) {
	s, feed := testStudy(t)
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
		{"admission", halfRateAdmission(feed)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := func(more ...Option) []Option {
				return append([]Option{WithRSDoS(s.Config.RSDoS), WithLateness(1), WithOverload(tc.ov)}, more...)
			}
			full := &memSink{}
			p, err := New(s.Pipeline, full, opts()...)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := deliver(p, feed); err != nil {
				t.Fatal(err)
			}
			if len(full.batches) < 3 {
				t.Fatalf("only %d batches — too few to kill mid-run", len(full.batches))
			}
			if denied := p.Overload().AdmitDenied; (tc.ov.AdmitRate > 0) != (denied > 0) {
				t.Fatalf("admit rate %g denied %d observations", tc.ov.AdmitRate, denied)
			}

			dir, err := checkpoint.Create(t.TempDir(), hdr)
			if err != nil {
				t.Fatal(err)
			}
			killAt := len(full.batches)/2 + 1
			crash := &memSink{failAt: killAt}
			p1, err := New(s.Pipeline, crash, opts(WithJournal(dir))...)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := deliver(p1, feed); !errors.Is(err, errSinkDown) {
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
			p2, err := New(s.Pipeline, resumed, opts(WithJournal(dir))...)
			if err != nil {
				t.Fatal(err)
			}
			if rc, ok := p2.Resumed(); !ok || rc != cur {
				t.Fatalf("Resumed() = %+v, %v; want the journaled cursor", rc, ok)
			}
			if _, err := deliver(p2, feed); err != nil {
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
	s, feed := testStudy(t)

	full := &memSink{}
	p0, err := New(s.Pipeline, full, WithRSDoS(s.Config.RSDoS), WithLateness(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := deliver(p0, feed); err != nil {
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
	p1, err := New(s.Pipeline, crash, WithRSDoS(s.Config.RSDoS), WithLateness(1), WithJournal(dir))
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
	if _, err := deliver(p1, feed); !errors.Is(err, errBoundary) {
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
	p2, err := New(s.Pipeline, resumed, WithRSDoS(s.Config.RSDoS), WithLateness(1), WithJournal(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := deliver(p2, feed); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	got := append(append([]Batch{}, crash.batches...), resumed.batches...)
	if !reflect.DeepEqual(got, full.batches) {
		t.Fatalf("boundary crash + resume emitted %d batches, uninterrupted run %d — not exactly-once",
			len(got), len(full.batches))
	}
}

// TestStreamLateDropsAndMetrics: a stream whose lateness is smaller than
// the delivery's delay drops late observations (counted, never
// corrupting output order) and surfaces lag and drops through the
// registry.
func TestStreamLateDropsAndMetrics(t *testing.T) {
	s, feed := testStudy(t)
	steps := delayed(feed, 3, 3) // up to 3 advances of delay
	reg := obs.New()
	sink := &memSink{}
	p, err := New(s.Pipeline, sink, WithRSDoS(s.Config.RSDoS), WithLateness(0), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	accepted, err := deliver(p, steps)
	if err != nil {
		t.Fatal(err)
	}
	offered := 0
	for _, st := range steps {
		if st.o != nil {
			offered++
		}
	}
	if p.LateDrops() == 0 {
		t.Fatal("3 advances of delay against lateness 0 dropped nothing — the delay is not exercising lateness")
	}
	if int64(offered-len(accepted)) != p.LateDrops() {
		t.Fatalf("accepted %d of %d but LateDrops = %d", len(accepted), offered, p.LateDrops())
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
	if snap.Counters["stream.batches_emitted"] != int64(len(sink.batches)) || len(sink.batches) == 0 {
		t.Errorf("stream.batches_emitted = %d, the sink took %d", snap.Counters["stream.batches_emitted"], len(sink.batches))
	}
	for _, name := range []string{"stream.watermark", "stream.max_seen_window", "stream.lag_windows", "stream.open_candidates"} {
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
		if strings.HasPrefix(name, "stream.") {
			t.Errorf("volatile counter %q leaked into StableSnapshot", name)
		}
	}
}

// TestStreamResumeDivergenceDetected: resuming against a journal whose
// cursor the replay cannot reproduce is refused, not silently emitted.
func TestStreamResumeDivergenceDetected(t *testing.T) {
	s, feed := testStudy(t)
	hash, _ := study.ConfigHash(s.Config)
	dir, err := checkpoint.Create(t.TempDir(), checkpoint.Header{ConfigHash: hash, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sink := &memSink{}
	p, err := New(s.Pipeline, sink, WithRSDoS(s.Config.RSDoS), WithLateness(1), WithJournal(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := deliver(p, feed); err != nil {
		t.Fatal(err)
	}
	cur, _, _ := dir.LoadCursor()
	// poison the journal: claim one more attack than the replay produces
	cur.Attacks++
	cur.ClosedThrough = sink.batches[len(sink.batches)/2].ClosedThrough
	if err := dir.WriteCursor(cur); err != nil {
		t.Fatal(err)
	}
	p2, err := New(s.Pipeline, &memSink{}, WithRSDoS(s.Config.RSDoS), WithLateness(1), WithJournal(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, err = deliver(p2, feed); err == nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("divergent resume not detected: %v", err)
	}
}
