package distjoin

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"dnsddos/internal/checkpoint"
	"dnsddos/internal/clock"
	"dnsddos/internal/daystore"
	"dnsddos/internal/faultinject"
	"dnsddos/internal/obs"
	"dnsddos/internal/report"
	"dnsddos/internal/study"
)

// distjoin_test.go asserts the package's headline contract: a
// distributed run is byte-identical to single-process study.RunContext —
// events CSV and report JSON — under a healthy fleet, a worker killed
// mid-shard, a poisoned day quarantined across the fleet, a graceful
// drain, a corrupted control channel, and a coordinator killed and
// resumed from its journal.

func testConfig() study.Config {
	cfg := study.QuickConfig()
	cfg.World.Domains = 1200
	cfg.Attacks.TotalAttacks = 1200
	cfg.FromDay, cfg.ToDay = 27, 30
	return cfg
}

func eventsBytes(t *testing.T, s *study.Study) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := report.EventsCSV(&buf, s.Events); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// reportJSON renders the run report with quarantine stacks cleared:
// stacks carry goroutine ids and differ across processes by design.
func reportJSON(t *testing.T, s *study.Study) []byte {
	t.Helper()
	for i := range s.Report.SkippedDays {
		s.Report.SkippedDays[i].Stack = ""
	}
	b, err := json.MarshalIndent(&s.Report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func singleRun(t *testing.T, cfg study.Config, extra ...study.Option) *study.Study {
	t.Helper()
	s, err := study.RunContext(context.Background(), cfg, extra...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// runFleet drives one distributed run: the coordinator in this
// goroutine, each worker in its own. Worker errors come back by index.
func runFleet(t *testing.T, ctx context.Context, cfg study.Config, coordOpts []CoordOption, workers []*Worker) (*study.Study, *obs.Registry, []error, error) {
	t.Helper()
	reg := obs.New()
	opts := append([]CoordOption{
		WithHeartbeatInterval(50 * time.Millisecond),
		WithMetrics(reg),
	}, coordOpts...)
	coord, err := NewCoordinator(cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	wctx, wcancel := context.WithCancel(context.Background())
	defer wcancel()
	errs := make([]error, len(workers))
	var wg sync.WaitGroup
	for i, w := range workers {
		wg.Add(1)
		go func(i int, w *Worker) {
			defer wg.Done()
			errs[i] = w.Run(wctx, coord.Addr())
		}(i, w)
	}
	s, runErr := coord.Run(ctx)
	wcancel()
	wg.Wait()
	return s, reg, errs, runErr
}

// ---- unit tests -----------------------------------------------------

func TestFrameRoundTripAndCRC(t *testing.T) {
	m := &message{
		Kind:   kindSweepDone,
		Day:    29,
		Image:  []byte("sealed day file image"),
		SHA256: "c0ffee",
		Reason: "panic: boom",
	}
	var conn bytes.Buffer
	wr := &wire{conn: &conn}
	if err := wr.send(m); err != nil {
		t.Fatal(err)
	}
	frame := bytes.Clone(conn.Bytes())
	// a stale field of the previous message must not leak into the next
	got := message{Name: "stale"}
	if err := wr.recv(&got); err != nil {
		t.Fatal(err)
	}
	if got.Kind != m.Kind || got.Day != m.Day || got.Reason != m.Reason || got.Name != "" ||
		!bytes.Equal(got.Image, m.Image) || got.SHA256 != m.SHA256 {
		t.Errorf("frame round trip mangled message: %+v", got)
	}
	// a single flipped byte anywhere must be detected, never decoded
	for _, i := range []int{0, 5, len(frame) / 2, len(frame) - 1} {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0x40
		if err := readMessage(bad, &got); err == nil {
			t.Errorf("flipped byte %d went undetected", i)
		}
	}
}

// testState builds a minimal coordinator event-loop state for unit
// tests, with a fake registered worker wired to nothing.
func testState(t *testing.T) (*runState, *fleetWorker) {
	t.Helper()
	c, err := NewCoordinator(testConfig(), WithHeartbeatInterval(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.l.Close() })
	st := &runState{
		c:       c,
		evs:     make(chan coordEvent, 64),
		workers: map[int]*fleetWorker{},
		dayDir:  t.TempDir(),
	}
	if st.ledger, err = study.OpenLedger(c.cfg, c.reg, "", st.dayDir, false); err != nil {
		t.Fatal(err)
	}
	client, server := net.Pipe()
	t.Cleanup(func() { client.Close(); server.Close() })
	w := &fleetWorker{
		id: 1, name: "fake", conn: server, wr: &wire{conn: server},
		outbox: make(chan *message, 8), wdone: make(chan struct{}),
		hello: true, state: stateLive, lastSeen: time.Now(),
	}
	st.workers[w.id] = w
	return st, w
}

// TestRedeliveriesDiscarded: a result for work already complete — the
// signature of a reassigned task finishing twice — is discarded and
// counted, never applied twice.
func TestRedeliveriesDiscarded(t *testing.T) {
	st, w := testState(t)
	if _, err := st.ledger.Complete(27, daystore.SealedFile{Day: 27}, study.SweepCounts{}); err != nil {
		t.Fatal(err)
	}
	if err := st.handle(w, &message{Kind: kindSweepDone, Day: 27}); err != nil {
		t.Fatal(err)
	}
	if got := st.c.m.shardRedeliveries.Load(); got != 1 {
		t.Errorf("duplicate sweep result: redeliveries = %d, want 1", got)
	}
	if st.ledger.Report().CompletedDays != 1 {
		t.Errorf("duplicate sweep result incremented completions")
	}
}

// TestLivenessSuspectThenDead: a quiet worker turns suspect and its task
// is reassigned (uncharged); a silent one is dropped entirely.
func TestLivenessSuspectThenDead(t *testing.T) {
	st, w := testState(t)
	w.inflight = &task{day: 27}
	w.lastSeen = time.Now().Add(-300 * time.Millisecond) // > 5 missed 50ms beats
	st.checkLiveness()
	if w.state != stateSuspect {
		t.Fatalf("quiet worker state = %v, want suspect", w.state)
	}
	if w.inflight != nil {
		t.Error("suspect worker's task not reassigned")
	}
	if got := st.c.m.reassignments.Load(); got != 1 {
		t.Errorf("reassignments = %d, want 1", got)
	}
	select {
	case ev := <-st.evs:
		if ev.retry == nil || ev.retry.day != 27 {
			t.Fatalf("retry event = %+v, want day 27", ev)
		}
		if n := st.ledger.Attempts(27); n != 0 {
			t.Errorf("suspect reassignment charged an attempt: %d", n)
		}
		st.enqueue(ev.retry)
	case <-time.After(2 * time.Second):
		t.Fatal("no retry event after suspect reassignment")
	}
	if len(st.pending) != 1 {
		t.Fatalf("pending = %d, want 1", len(st.pending))
	}
	w.lastSeen = time.Now().Add(-time.Second) // > 10 missed beats
	st.checkLiveness()
	if _, ok := st.workers[w.id]; ok {
		t.Error("silent worker still registered")
	}
}

// TestSecondFailureQuarantines: the PR 3 contract across the wire — a
// day that fails its retry is quarantined with both failures counted.
func TestSecondFailureQuarantines(t *testing.T) {
	st, w := testState(t)
	w.inflight = &task{day: 28}
	if !st.ledger.Fail(28, "worker old lost mid-shard: EOF", "", true) {
		t.Fatal("first failure not retried")
	}
	if err := st.handle(w, &message{Kind: kindTaskFailed, Day: 28, Reason: "panic: poisoned", Stack: "stack"}); err != nil {
		t.Fatal(err)
	}
	skipped := st.ledger.Report().SkippedDays
	if len(skipped) != 1 {
		t.Fatalf("skipped = %d, want 1", len(skipped))
	}
	sk := skipped[0]
	if sk.Day != 28 || sk.Reason != "panic: poisoned" || sk.Stack != "stack" || sk.Attempts != 2 {
		t.Errorf("quarantine record = %+v", sk)
	}
}

// ---- integration tests ----------------------------------------------

// plainBaseline runs the single-process reference once per test binary.
var baselineOnce sync.Once
var baselineEvents, baselineReport []byte

func plainBaseline(t *testing.T) (events, rep []byte) {
	t.Helper()
	baselineOnce.Do(func() {
		s := singleRun(t, testConfig())
		baselineEvents = eventsBytes(t, s)
		baselineReport = reportJSON(t, s)
	})
	return baselineEvents, baselineReport
}

func assertParity(t *testing.T, s *study.Study, wantEvents, wantReport []byte) {
	t.Helper()
	if got := eventsBytes(t, s); !bytes.Equal(got, wantEvents) {
		t.Errorf("events CSV diverged from single-process run (%d vs %d bytes)", len(got), len(wantEvents))
	}
	if wantReport != nil {
		if got := reportJSON(t, s); !bytes.Equal(got, wantReport) {
			t.Errorf("report diverged from single-process run:\n--- distributed ---\n%s\n--- single ---\n%s", got, wantReport)
		}
	}
}

func TestDistributedParity(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	wantEvents, wantReport := plainBaseline(t)
	workers := []*Worker{NewWorker("alpha"), NewWorker("bravo"), NewWorker("charlie")}
	s, _, _, err := runFleet(t, context.Background(), testConfig(), nil, workers)
	if err != nil {
		t.Fatal(err)
	}
	assertParity(t, s, wantEvents, wantReport)

	// The Study is the shell RunContext returns, session included: a
	// second pipeline built from it over the same days re-joins to the
	// same bytes.
	sess := s.Session()
	if sess == nil {
		t.Fatal("coordinator Study has no Session")
	}
	p := sess.NewPipeline(s.Pipeline.DayStore(), nil, obs.New())
	events, err := p.EventsContext(context.Background(), s.Attacks)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := report.EventsCSV(&buf, events); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), wantEvents) {
		t.Error("re-join through the coordinator Study's Session diverged from the single-process run")
	}
}

// TestWorkerDeathMidSweepReassigned kills one worker's connection inside
// its first sweep — the in-process equivalent of SIGKILL — and requires
// full parity: the day is re-swept elsewhere, its metrics counted once.
func TestWorkerDeathMidSweepReassigned(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	wantEvents, wantReport := plainBaseline(t)

	var mu sync.Mutex
	var victim net.Conn
	var once sync.Once
	killer := NewWorker("judas",
		withDialer(func(ctx context.Context, addr string) (net.Conn, error) {
			var d net.Dialer
			c, err := d.DialContext(ctx, "tcp", addr)
			mu.Lock()
			victim = c
			mu.Unlock()
			return c, err
		}),
		withBeforeSweep(func(clock.Day) {
			once.Do(func() {
				mu.Lock()
				victim.Close()
				mu.Unlock()
			})
		}),
	)
	workers := []*Worker{killer, NewWorker("alpha"), NewWorker("bravo")}
	s, reg, errs, err := runFleet(t, context.Background(), testConfig(), nil, workers)
	if err != nil {
		t.Fatal(err)
	}
	if errs[0] == nil {
		t.Error("killed worker's Run returned nil, want a connection error")
	}
	assertParity(t, s, wantEvents, wantReport)
	snap := reg.Snapshot()
	if snap.Counters["distjoin.reassignments"] < 1 {
		t.Error("worker death caused no reassignment")
	}
	if snap.Counters["distjoin.task_failures"] < 1 {
		t.Error("worker death not counted as a task failure")
	}
}

// TestPoisonedDayQuarantineParity: a day that panics on every worker is
// retried once elsewhere and quarantined — byte-identical, stacks aside,
// to study.WithBeforeDay panicking in-process.
func TestPoisonedDayQuarantineParity(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	const poisoned = clock.Day(28)
	panicOn := func(d clock.Day) {
		if d == poisoned {
			panic("poisoned shard")
		}
	}
	single := singleRun(t, testConfig(), study.WithBeforeDay(panicOn))
	workers := []*Worker{
		NewWorker("alpha", withBeforeSweep(panicOn)),
		NewWorker("bravo", withBeforeSweep(panicOn)),
	}
	s, _, _, err := runFleet(t, context.Background(), testConfig(), nil, workers)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Report.SkippedDays) != 1 {
		t.Fatalf("SkippedDays = %+v, want exactly the poisoned day", s.Report.SkippedDays)
	}
	sk := s.Report.SkippedDays[0]
	if sk.Day != poisoned || sk.Reason != "panic: poisoned shard" || sk.Attempts != 2 || sk.Stack == "" {
		t.Errorf("quarantine record = {Day:%d Reason:%q Attempts:%d stack:%d bytes}",
			int32(sk.Day), sk.Reason, sk.Attempts, len(sk.Stack))
	}
	assertParity(t, s, eventsBytes(t, single), reportJSON(t, single))
}

// TestGracefulDrain: a drained worker finishes its in-flight task,
// deregisters, and exits nil; the run completes on the rest of the
// fleet with full parity.
func TestGracefulDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	wantEvents, wantReport := plainBaseline(t)
	gotTask := make(chan struct{})
	var once sync.Once
	quitter := NewWorker("quitter", withBeforeSweep(func(clock.Day) {
		once.Do(func() { close(gotTask) })
	}))
	go func() {
		<-gotTask
		quitter.Drain()
	}()
	// min-workers is a start gate only: draining below it mid-run must
	// not stall the fleet (regression: the run once hung here).
	workers := []*Worker{quitter, NewWorker("alpha")}
	s, _, errs, err := runFleet(t, context.Background(), testConfig(),
		[]CoordOption{WithMinWorkers(2)}, workers)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-gotTask:
	case <-time.After(time.Second):
		t.Fatal("drained worker never received a task")
	}
	if errs[0] != nil {
		t.Errorf("drained worker's Run = %v, want nil (graceful exit)", errs[0])
	}
	assertParity(t, s, wantEvents, wantReport)
}

// TestCoordinatorKillAndResume: kill the coordinator mid-sweep, and again
// once every day is journaled, resume each from the journal, and the
// final events must be byte-identical to the uninterrupted single-process
// run. A journal whose days are all done resumes with no worker at all:
// the coordinator joins the sealed days itself.
func TestCoordinatorKillAndResume(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	wantEvents, _ := plainBaseline(t)
	cfg := testConfig()
	days := int(cfg.ToDay-cfg.FromDay) + 1

	// resumeAfterKill cancels a two-worker run once refs day references
	// are journaled, then resumes the directory with the first resumers
	// of two fresh workers.
	resumeAfterKill := func(t *testing.T, refs, resumers int) *study.Study {
		dir := t.TempDir()
		ctxA, cancelA := context.WithCancel(context.Background())
		defer cancelA()
		pollDone := make(chan struct{})
		go func() {
			defer close(pollDone)
			for {
				// read-only: the coordinator is appending to this log
				if m, _ := checkpoint.ReadDayRefs(dir); len(m) >= refs {
					cancelA()
					return
				}
				select {
				case <-ctxA.Done():
					return
				case <-time.After(time.Millisecond):
				}
			}
		}()
		workersA := []*Worker{NewWorker("a1"), NewWorker("a2")}
		_, _, _, errA := runFleet(t, ctxA, cfg, []CoordOption{WithCheckpointDir(dir)}, workersA)
		<-pollDone
		if errA == nil {
			// The run outraced the kill; the resume below degenerates to a
			// full-journal no-op run, which must still hold parity.
			t.Logf("run completed before the kill landed (waited for %d day refs)", refs)
		} else if !errors.Is(errA, context.Canceled) {
			t.Fatalf("killed coordinator returned %v, want context.Canceled", errA)
		}
		var workersB []*Worker
		for _, name := range []string{"b1", "b2"}[:resumers] {
			workersB = append(workersB, NewWorker(name))
		}
		s, _, _, errB := runFleet(t, context.Background(), cfg,
			[]CoordOption{WithCheckpointDir(dir), WithResume(true)}, workersB)
		if errB != nil {
			t.Fatalf("resumed coordinator: %v", errB)
		}
		return s
	}

	t.Run("killed_mid_sweep", func(t *testing.T) {
		s := resumeAfterKill(t, 1, 2)
		if s.Report.ResumedDays < 1 {
			t.Errorf("ResumedDays = %d, want >= 1 (journal had completed days)", s.Report.ResumedDays)
		}
		if got := s.Report.ResumedDays + s.Report.CompletedDays; got != days {
			t.Errorf("resumed %d + completed %d != %d days", s.Report.ResumedDays, s.Report.CompletedDays, days)
		}
		if len(s.Report.SkippedDays) != 0 {
			t.Errorf("unexpected quarantines after resume: %+v", s.Report.SkippedDays)
		}
		assertParity(t, s, wantEvents, nil)
	})

	t.Run("killed_after_sweep", func(t *testing.T) {
		s := resumeAfterKill(t, days, 0)
		if s.Report.ResumedDays != days || s.Report.CompletedDays != 0 {
			t.Errorf("resumed %d, completed %d; want all %d days resumed", s.Report.ResumedDays, s.Report.CompletedDays, days)
		}
		assertParity(t, s, wantEvents, nil)
	})
}

// TestChaosFleet is the make-distjoin leg: four workers, one killed
// mid-shard, one writing through a corrupting faultinject stream (every
// damaged frame fails the CRC and downs the connection), and the result
// still byte-identical to the single-process run.
func TestChaosFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	wantEvents, wantReport := plainBaseline(t)

	var mu sync.Mutex
	var victim net.Conn
	var once sync.Once
	killer := NewWorker("killed",
		withDialer(func(ctx context.Context, addr string) (net.Conn, error) {
			var d net.Dialer
			c, err := d.DialContext(ctx, "tcp", addr)
			mu.Lock()
			victim = c
			mu.Unlock()
			return c, err
		}),
		withBeforeSweep(func(clock.Day) {
			once.Do(func() {
				mu.Lock()
				victim.Close()
				mu.Unlock()
			})
		}),
	)
	inj := faultinject.New(1312)
	inj.SetProfile(faultinject.Profile{Corrupt: 0.05})
	corrupted := NewWorker("corrupted",
		withDialer(func(ctx context.Context, addr string) (net.Conn, error) {
			var d net.Dialer
			c, err := d.DialContext(ctx, "tcp", addr)
			if err != nil {
				return nil, err
			}
			return faultinject.WrapStream(c, inj), nil
		}),
	)
	workers := []*Worker{killer, corrupted, NewWorker("clean-1"), NewWorker("clean-2")}
	s, reg, _, err := runFleet(t, context.Background(), testConfig(), nil, workers)
	if err != nil {
		t.Fatal(err)
	}
	assertParity(t, s, wantEvents, wantReport)
	if n := reg.Snapshot().Counters["distjoin.reassignments"]; n < 1 {
		t.Errorf("chaos run recorded %d reassignments, want >= 1", n)
	}
}
