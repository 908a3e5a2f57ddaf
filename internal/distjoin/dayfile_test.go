package distjoin

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dnsddos/internal/clock"
	"dnsddos/internal/daystore"
	"dnsddos/internal/nsset"
	"dnsddos/internal/study"
)

// dayfile_test.go covers the one form a measured day takes on the wire —
// the sealed day file, one per frame: no frame grows with the span, a
// damaged file is refused with daystore.ErrCorrupt on either side without
// costing the run its byte parity, and a coordinator resume re-verifies
// every file its journal references.

// frameConn sits on the worker's end of a control connection and sees
// whole frames in both directions: wire.send issues one Write per frame,
// and inbound bytes are reassembled into frames before the worker reads
// them, so a test can observe — or rewrite — exactly what crossed.
type frameConn struct {
	net.Conn
	// sent observes each frame the worker writes.
	sent func(frame []byte)
	// recv observes each frame the coordinator wrote and returns the bytes
	// to hand the worker (the frame itself to pass it through).
	recv func(frame []byte) []byte

	raw, out bytes.Buffer // only the worker's single reader goroutine touches these
}

func (c *frameConn) Write(b []byte) (int, error) {
	if c.sent != nil {
		c.sent(b)
	}
	return c.Conn.Write(b)
}

func (c *frameConn) Read(p []byte) (int, error) {
	buf := make([]byte, 64<<10)
	for c.out.Len() == 0 {
		n, err := c.Conn.Read(buf)
		c.raw.Write(buf[:n])
		for c.raw.Len() >= 8 {
			size := 8 + int(binary.BigEndian.Uint32(c.raw.Bytes()[4:8])) + 4
			if c.raw.Len() < size {
				break
			}
			frame := append([]byte(nil), c.raw.Next(size)...)
			c.out.Write(c.recv(frame))
		}
		if err != nil && c.out.Len() == 0 {
			return 0, err
		}
	}
	return c.out.Read(p)
}

// tapDialer returns a withDialer hook wrapping the connection in a
// frameConn built by mk.
func tapDialer(mk func(net.Conn) *frameConn) WorkerOption {
	return withDialer(func(ctx context.Context, addr string) (net.Conn, error) {
		var d net.Dialer
		c, err := d.DialContext(ctx, "tcp", addr)
		if err != nil {
			return nil, err
		}
		return mk(c), nil
	})
}

func decodeFrame(t *testing.T, frame []byte) message {
	t.Helper()
	var m message
	if err := readFrame(bytes.NewReader(frame), &m); err != nil {
		t.Errorf("undecodable frame on the wire: %v", err)
	}
	return m
}

// frameSizes is the largest frame seen per kind, both directions.
type frameSizes struct {
	mu  sync.Mutex
	max map[kind]int
}

func (fs *frameSizes) note(t *testing.T, frame []byte) {
	m := decodeFrame(t, frame)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if len(frame) > fs.max[m.Kind] {
		fs.max[m.Kind] = len(frame)
	}
}

// tappedFleet runs the TestDistributedParity fleet over cfg with every
// worker's connection tapped, journaled to a fresh directory, and returns
// the per-kind frame maxima and the largest sealed day file.
func tappedFleet(t *testing.T, cfg study.Config) (map[kind]int, int) {
	t.Helper()
	fs := &frameSizes{max: map[kind]int{}}
	tap := tapDialer(func(c net.Conn) *frameConn {
		return &frameConn{
			Conn: c,
			sent: func(f []byte) { fs.note(t, f) },
			recv: func(f []byte) []byte { fs.note(t, f); return f },
		}
	})
	dir := t.TempDir()
	workers := []*Worker{NewWorker("alpha", tap), NewWorker("bravo", tap), NewWorker("charlie", tap)}
	// a 2 ms heartbeat puts one on the wire in any run, however quick; the
	// thresholds keep a busy worker from being taken for a quiet one
	opts := []CoordOption{WithCheckpointDir(dir),
		WithHeartbeatInterval(2 * time.Millisecond), WithSuspectAfter(2500), WithDeadAfter(5000)}
	if _, _, _, err := runFleet(t, context.Background(), cfg, opts, workers); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "days", "day_*.dcol"))
	if err != nil || len(files) != int(cfg.ToDay-cfg.FromDay)+1 {
		t.Fatalf("coordinator holds %d day files (err %v), want one per day", len(files), err)
	}
	largest := 0
	for _, f := range files {
		st, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		largest = max(largest, int(st.Size()))
	}
	// copy under the lock: a worker's reader goroutine can outlive its Run
	fs.mu.Lock()
	defer fs.mu.Unlock()
	sizes := make(map[kind]int, len(fs.max))
	for k, n := range fs.max {
		sizes[k] = n
	}
	return sizes, largest
}

// TestFrameSizeBoundedByDayFile runs the parity fleet at two spans and
// pins what the single day form buys: the largest frame either side ever
// writes is one sealed day file plus a fixed envelope, and the frames that
// used to carry every day at once — the join setup — are the same few
// bytes whether the run spans four days or twelve.
func TestFrameSizeBoundedByDayFile(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	// envelope: frame header and trailer, gob type info, the hash, and the
	// day's sweep metrics snapshot — nothing that scales with a day's rows
	const slack = 4 << 10
	short := testConfig()
	long := testConfig()
	long.ToDay = long.FromDay + 3*(short.ToDay-short.FromDay+1) - 1

	fsShort, fileShort := tappedFleet(t, short)
	fsLong, fileLong := tappedFleet(t, long)

	for _, run := range []struct {
		name  string
		sizes map[kind]int
		file  int
	}{{"short", fsShort, fileShort}, {"long", fsLong, fileLong}} {
		for _, k := range []kind{kindHeartbeat, kindSweepDone, kindDayFile, kindJoinSetup} {
			if run.sizes[k] == 0 {
				t.Fatalf("%s span: no frame of kind %d crossed the wire", run.name, k)
			}
		}
		for k, n := range run.sizes {
			if n > run.file+slack {
				t.Errorf("%s span: kind %d frame of %d bytes exceeds the largest day file (%d) + %d",
					run.name, k, n, run.file, slack)
			}
		}
	}
	// every frame that is not a day file or a range's events is control
	// traffic of fixed size: tripling the span must not move it by a byte
	// (shutdown is left out: a worker may hang up before reading it)
	for _, k := range []kind{kindHello, kindWelcome, kindHeartbeat, kindAssignSweep, kindJoinSetup, kindAssignJoin} {
		if a, b := fsShort[k], fsLong[k]; a != b {
			t.Errorf("kind %d frame is %d bytes over %d days but %d bytes over %d days",
				k, a, short.ToDay-short.FromDay+1, b, long.ToDay-long.FromDay+1)
		}
	}
}

// fakeCoordinator accepts one worker, welcomes it with cfg, and hands the
// connection to script.
func fakeCoordinator(t *testing.T, cfg study.Config, script func(wr *wire)) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		wr := &wire{conn: conn}
		var hello message
		if err := wr.recv(&hello); err != nil || hello.Kind != kindHello {
			t.Errorf("fake coordinator: hello = %+v, err %v", hello.Kind, err)
			return
		}
		wr.send(&message{Kind: kindWelcome, ConfigJSON: cfgJSON, HeartbeatMS: 50})
		script(wr)
		// hold the connection until the worker hangs up
		for wr.recv(&hello) == nil {
		}
	}()
	return l.Addr().String()
}

// TestWorkerRefusesCorruptDayFile: a day file that arrives in an intact
// frame but is itself damaged — flipped, truncated, or not the bytes the
// hash announces — ends the worker with daystore.ErrCorrupt before it is
// published to the spool.
func TestWorkerRefusesCorruptDayFile(t *testing.T) {
	cfg := testConfig()
	snap := nsset.Snapshot{Baselines: []nsset.BaselineSnap{{Key: "ns-a", B: nsset.DayBaseline{Day: 27, OKCount: 3, Domains: 3}}}}
	image, sum, err := daystore.EncodeDay(27, snap)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), image...)
	flipped[len(flipped)/2] ^= 0x01
	for _, tc := range []struct {
		name  string
		image []byte
		sha   string
	}{
		{"flipped_byte", flipped, sum},
		{"truncated", image[:len(image)-5], sum},
		{"wrong_hash", image, "0000" + sum[4:]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr := fakeCoordinator(t, cfg, func(wr *wire) {
				wr.send(&message{Kind: kindJoinSetup, NumDays: 1, NumShards: 1, NumRanges: 1})
				wr.send(&message{Kind: kindDayFile, Day: 27, Image: tc.image, SHA256: tc.sha})
			})
			spool := t.TempDir()
			err := NewWorker("picky", WithSpoolDir(spool)).Run(context.Background(), addr)
			if !errors.Is(err, daystore.ErrCorrupt) {
				t.Fatalf("worker error = %v, want daystore.ErrCorrupt", err)
			}
			if left, _ := os.ReadDir(spool); len(left) != 0 {
				t.Fatalf("refused day file still reached the spool: %v", left)
			}
		})
	}
}

// TestCorruptDayFileFleetParity: the first day file the coordinator
// streams at join setup — to whichever worker gets the first range — is
// tampered with: a byte flipped inside a re-framed, CRC-valid frame. That
// worker refuses the file and leaves; the coordinator sees a failed
// connection, reassigns the range, and the run still ends byte-identical.
func TestCorruptDayFileFleetParity(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	wantEvents, wantReport := plainBaseline(t)
	var tampered atomic.Bool
	tamper := tapDialer(func(c net.Conn) *frameConn {
		return &frameConn{Conn: c, recv: func(f []byte) []byte {
			m := decodeFrame(t, f)
			if m.Kind != kindDayFile || !tampered.CompareAndSwap(false, true) {
				return f
			}
			m.Image[len(m.Image)/2] ^= 0x01
			bad, err := encodeFrame(&m)
			if err != nil {
				t.Error(err)
			}
			return bad
		}}
	})
	workers := []*Worker{NewWorker("alpha", tamper), NewWorker("bravo", tamper), NewWorker("charlie", tamper)}
	s, reg, errs, err := runFleet(t, context.Background(), testConfig(), nil, workers)
	if err != nil {
		t.Fatal(err)
	}
	refused := 0
	for _, werr := range errs {
		if errors.Is(werr, daystore.ErrCorrupt) {
			refused++
		}
	}
	if refused != 1 {
		t.Errorf("%d workers refused a day file with daystore.ErrCorrupt, want exactly the tampered one: %v", refused, errs)
	}
	assertParity(t, s, wantEvents, wantReport)
	if n := reg.Snapshot().Counters["distjoin.reassignments"]; n < 1 {
		t.Errorf("refusing worker's range was never reassigned (reassignments = %d)", n)
	}
}

// TestJoinRangeRefusalIsAFailure: a worker installs only images that
// validate, so its day store can refuse a day only when the spool rots
// between Install and the join's first read of that file — the store then
// panics with its typed error inside the shard workers (the contract in
// core/daystore.go), JoinShardRange re-raises it on the worker's goroutine,
// and joinRangeIsolated turns it into the failure the worker reports, in
// quarantine shape, instead of a dead process.
func TestJoinRangeRefusalIsAFailure(t *testing.T) {
	ctx := context.Background()
	spool := t.TempDir()
	s := singleRun(t, testConfig(), study.WithDayStoreDir(spool), study.WithSkipJoin())
	for _, d := range []clock.Day{27, 28, 29, 30} {
		path := filepath.Join(spool, daystore.FileName(d))
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		b[len(b)/2] ^= 0x01
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	set, err := daystore.Open(spool)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	sess := s.Session()
	pipe := sess.NewPipeline(set, nil, nil)
	events, jf := joinRangeIsolated(ctx, pipe, sess, 0, pipe.JoinShardCount(sess.Attacks))
	if jf == nil || events != nil {
		t.Fatalf("join over a rotten spool returned %d events and failure %v", len(events), jf)
	}
	if !strings.HasPrefix(jf.reason, "panic: daystore: "+spool) || !strings.Contains(jf.reason, "crc mismatch") || jf.stack == "" {
		t.Errorf("failure = %q (stack %d bytes), want the store's refusal of a spool file, with a stack", jf.reason, len(jf.stack))
	}
}

// TestCoordinatorRefusesCorruptSweepImage: the mirror case — a worker
// reports a sweep whose image does not validate. Nothing is installed or
// journaled, the worker is dropped, and the day is charged a failed
// attempt and retried.
func TestCoordinatorRefusesCorruptSweepImage(t *testing.T) {
	st, w := testState(t)
	image, sum, err := daystore.EncodeDay(28, nsset.Snapshot{})
	if err != nil {
		t.Fatal(err)
	}
	image[len(image)-1] ^= 0x10
	w.inflight = &task{day: 28}
	if err := st.handle(w, &message{Kind: kindSweepDone, Day: 28, Image: image, SHA256: sum}); err != nil {
		t.Fatalf("a corrupt image must cost the worker, not the run: %v", err)
	}
	if _, ok := st.workers[w.id]; ok {
		t.Error("worker that shipped a corrupt day file is still registered")
	}
	if st.ledger.Done(28) || st.ledger.Report().CompletedDays != 0 {
		t.Errorf("corrupt day accepted: done %v, complete %d", st.ledger.Done(28), st.ledger.Report().CompletedDays)
	}
	if left, _ := os.ReadDir(st.dayDir); len(left) != 0 {
		t.Errorf("corrupt day file installed: %v", left)
	}
	select {
	case ev := <-st.evs:
		if ev.retry == nil || ev.retry.day != 28 || st.ledger.Attempts(28) != 1 {
			t.Fatalf("retry event = %+v with %d attempts, want day 28 charged one attempt", ev.retry, st.ledger.Attempts(28))
		}
	case <-time.After(2 * time.Second):
		t.Fatal("refused day was not requeued")
	}
}

// TestCoordinatorResumeVerifiesDayFiles: a resumed coordinator re-hashes
// every sealed file its journal references before counting the day done;
// a swapped byte refuses the resume with daystore.ErrCorrupt.
func TestCoordinatorResumeVerifiesDayFiles(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cfg := testConfig()
	dir := t.TempDir()
	if _, _, _, err := runFleet(t, context.Background(), cfg,
		[]CoordOption{WithCheckpointDir(dir)}, []*Worker{NewWorker("solo")}); err != nil {
		t.Fatal(err)
	}
	resume := func() error {
		c, err := NewCoordinator(cfg, WithCheckpointDir(dir), WithResume(true))
		if err != nil {
			t.Fatal(err)
		}
		// a complete journal needs no worker: the run is all replay
		_, err = c.Run(context.Background())
		return err
	}
	if err := resume(); err != nil {
		t.Fatalf("pristine journal refused: %v", err)
	}
	path := filepath.Join(dir, "days", daystore.FileName(clock.Day(28)))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x01
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := resume(); !errors.Is(err, daystore.ErrCorrupt) {
		t.Fatalf("resume over a swapped day file = %v, want daystore.ErrCorrupt", err)
	}
}
