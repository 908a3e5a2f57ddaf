package distjoin

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dnsddos/internal/checkpoint"
	"dnsddos/internal/clock"
	"dnsddos/internal/daystore"
	"dnsddos/internal/nsset"
	"dnsddos/internal/study"
)

// dayfile_test.go covers the one form a measured day takes on the wire —
// the sealed day file, one per sweep_done frame, worker to coordinator
// only: no frame grows with the span, a damaged file is refused with
// daystore.ErrCorrupt without costing the run its byte parity, and a
// coordinator resume re-verifies every file its journal references.

// frameConn sits on the worker's end of a control connection and sees
// whole frames in both directions: wire.send issues one Write per frame,
// and inbound bytes are reassembled into frames before the worker reads
// them, so a test can observe exactly what crossed — and rewrite what the
// worker sends.
type frameConn struct {
	net.Conn
	// sent sees each frame the worker writes and returns the bytes to put
	// on the wire (the frame itself to pass it through).
	sent func(frame []byte) []byte
	// recv, when set, observes each frame the coordinator wrote.
	recv func(frame []byte)

	raw, out bytes.Buffer // only the worker's single reader goroutine touches these
}

func (c *frameConn) Write(b []byte) (int, error) {
	if _, err := c.Conn.Write(c.sent(b)); err != nil {
		return 0, err
	}
	return len(b), nil
}

func (c *frameConn) Read(p []byte) (int, error) {
	if c.recv == nil {
		return c.Conn.Read(p)
	}
	buf := make([]byte, 64<<10)
	for c.out.Len() == 0 {
		n, err := c.Conn.Read(buf)
		c.raw.Write(buf[:n])
		for c.raw.Len() >= frameHeader {
			size := frameHeader + int(binary.BigEndian.Uint64(c.raw.Bytes()[frameHeader-8:])) + 4
			if c.raw.Len() < size {
				break
			}
			frame := c.raw.Next(size)
			c.recv(frame)
			c.out.Write(frame)
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
	if err := readMessage(frame, &m); err != nil {
		t.Errorf("undecodable frame on the wire: %v", err)
	}
	return m
}

// frameSizes is the largest frame seen per kind, both directions.
type frameSizes struct {
	mu  sync.Mutex
	max map[kind]int
}

func (fs *frameSizes) note(t *testing.T, frame []byte) message {
	m := decodeFrame(t, frame)
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if len(frame) > fs.max[m.Kind] {
		fs.max[m.Kind] = len(frame)
	}
	return m
}

// tappedFleet runs the TestDistributedParity fleet over cfg with every
// worker's connection tapped, journaled to a fresh directory, and returns
// the per-kind frame maxima and the largest sealed day file. A frame from
// the coordinator that carries a day image fails the test.
func tappedFleet(t *testing.T, cfg study.Config) (map[kind]int, int) {
	t.Helper()
	fs := &frameSizes{max: map[kind]int{}}
	tap := tapDialer(func(c net.Conn) *frameConn {
		return &frameConn{
			Conn: c,
			sent: func(f []byte) []byte { fs.note(t, f); return f },
			recv: func(f []byte) {
				if m := fs.note(t, f); len(m.Image) > 0 {
					t.Errorf("the coordinator sent a day image in a kind %d frame", m.Kind)
				}
			},
		}
	})
	dir := t.TempDir()
	workers := []*Worker{NewWorker("alpha", tap), NewWorker("bravo", tap), NewWorker("charlie", tap)}
	// a 20 ms heartbeat puts a few on the wire while the workers build
	// their sessions and sweep, and keeps a busy worker from being taken
	// for a quiet one: heartbeats come from their own goroutine, and only
	// 100 ms of silence (five intervals) makes a worker suspect
	opts := []CoordOption{WithCheckpointDir(dir), WithHeartbeatInterval(20 * time.Millisecond)}
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
// writes is one sealed day file plus a fixed envelope, sweep_done is the
// only kind that carries a day (and only towards the coordinator), and
// every other frame is the same few bytes whether the run spans four days
// or twelve.
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
		for _, k := range []kind{kindHeartbeat, kindSweepDone} {
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
	// every frame that is not a day file is control traffic of fixed size:
	// tripling the span must not move it by a byte (shutdown is left out:
	// a worker may hang up before reading it)
	for _, k := range []kind{kindHello, kindWelcome, kindHeartbeat, kindAssignSweep} {
		if a, b := fsShort[k], fsLong[k]; a != b {
			t.Errorf("kind %d frame is %d bytes over %d days but %d bytes over %d days",
				k, a, short.ToDay-short.FromDay+1, b, long.ToDay-long.FromDay+1)
		}
	}
}

// TestCorruptDayFileFleetParity: the first sweep image any worker sends is
// tampered with — a byte flipped inside a re-framed, CRC-valid frame. The
// coordinator's Install refuses it (daystore.ErrCorrupt) and drops exactly
// that worker; the day is charged one attempt and re-swept elsewhere, and
// the run still ends byte-identical.
func TestCorruptDayFileFleetParity(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	wantEvents, wantReport := plainBaseline(t)
	var tampered atomic.Int32 // 1 + the index of the worker whose image was tampered with
	tamper := func(i int) WorkerOption {
		return tapDialer(func(c net.Conn) *frameConn {
			return &frameConn{Conn: c, sent: func(f []byte) []byte {
				m := decodeFrame(t, f)
				if m.Kind != kindSweepDone || !tampered.CompareAndSwap(0, int32(i)+1) {
					return f
				}
				m.Image[len(m.Image)/2] ^= 0x01
				bad, err := checkpoint.EncodeFrame(&m)
				if err != nil {
					t.Error(err)
				}
				return bad
			}}
		})
	}
	names := []string{"alpha", "bravo", "charlie"}
	workers := make([]*Worker, len(names))
	for i, name := range names {
		workers[i] = NewWorker(name, tamper(i))
	}
	s, reg, errs, err := runFleet(t, context.Background(), testConfig(), nil, workers)
	if err != nil {
		t.Fatal(err)
	}
	victim := int(tampered.Load()) - 1
	if victim < 0 {
		t.Fatal("no sweep image crossed the wire")
	}
	// the coordinator hung up on the worker whose image it refused
	if werr := errs[victim]; werr == nil || errors.Is(werr, context.Canceled) {
		t.Errorf("worker %s, whose image was refused, returned %v; want a lost connection", names[victim], werr)
	}
	c := reg.Snapshot().Counters
	if c["distjoin.task_failures"] != 1 || c["distjoin.reassignments"] != 1 {
		t.Errorf("task_failures = %d, reassignments = %d; want the refused day charged once and re-swept elsewhere",
			c["distjoin.task_failures"], c["distjoin.reassignments"])
	}
	assertParity(t, s, wantEvents, wantReport)
}

// TestCoordinatorRefusesCorruptSweepImage: a worker reports a sweep whose
// image does not validate. Nothing is installed or journaled, the worker
// is dropped, and the day is charged a failed attempt and retried.
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
