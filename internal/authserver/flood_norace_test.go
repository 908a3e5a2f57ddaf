//go:build !race

package authserver

import (
	"net"
	"runtime"
	"testing"
	"time"

	"dnsddos/internal/dnswire"
	"dnsddos/internal/obs"
)

// The flood path's allocation tests. Each sends floodDatagrams copies of
// one pre-encoded query from a connected *net.UDPConn, which allocates
// nothing per write or read, so the process-wide malloc count over the
// run is the server's. A shed, rate-limited or slipped datagram must
// cost the server nothing, an answered one its decoded names' arena.
// The race detector's sync.Pool drops some of what it is given, so the
// file is built without it.

const floodDatagrams = 2000

// floodClient dials the server from a connected UDP socket and returns
// it with one encoded NS query for the degrade zone's name.
func floodClient(t *testing.T, addr string) (*net.UDPConn, []byte) {
	t.Helper()
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	query, err := dnswire.Encode(dnswire.NewQuery(0x4242, "victim.example", dnswire.TypeNS))
	if err != nil {
		t.Fatal(err)
	}
	return conn, query
}

// mallocsPer runs f n times and returns the process's allocations per
// run.
func mallocsPer(n int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// exchange sends the query and reads one response into buf, failing the
// test unless its header flags (byte 2, byte 3) are want.
func exchange(t *testing.T, conn *net.UDPConn, query, buf []byte, want [2]byte) {
	if _, err := conn.Write(query); err != nil {
		t.Fatal(err)
	}
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n < 12 || buf[2] != want[0] || buf[3] != want[1] {
		t.Fatalf("response flags %#x %#x, want %#x %#x", buf[2], buf[3], want[0], want[1])
	}
}

// awaitCount spins until c reaches want, failing the test after 10 s.
func awaitCount(t *testing.T, c *obs.Counter, want int64) {
	deadline := time.Now().Add(10 * time.Second)
	for c.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("counter at %d, want %d", c.Load(), want)
		}
		runtime.Gosched()
	}
}

// Response flags (header bytes 2 and 3) the flood tests expect: QR and
// AA on an answer, QR with SERVFAIL on a shed query, QR and TC on a slip.
var (
	flagsAnswer   = [2]byte{0x84, 0}
	flagsServFail = [2]byte{0x80, byte(dnswire.RCodeServFail)}
	flagsSlip     = [2]byte{0x82, 0}
)

// TestAnsweredQueryAllocatesOne: a query that is read, decoded, answered
// and written costs the server one allocation, its decoded names' arena
// (it cost three while the read and the write carried a net.Addr).
func TestAnsweredQueryAllocatesOne(t *testing.T) {
	srv := NewServer(degradeZone(), nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	conn, query := floodClient(t, addr)
	conn.SetReadDeadline(time.Now().Add(time.Minute))
	buf := make([]byte, 4096)
	for i := 0; i < 100; i++ { // fill the pools, grow the scratch
		exchange(t, conn, query, buf, flagsAnswer)
	}
	got := mallocsPer(floodDatagrams, func() { exchange(t, conn, query, buf, flagsAnswer) })
	t.Logf("%.3f allocations per answered query", got)
	if got > 1.05 {
		t.Errorf("%.3f allocations per answered query, want at most 1", got)
	}
}

// TestShedDatagramAllocatesNothing: with the one worker asleep in its
// delay and the queue full, every datagram is shed and answered with a
// reflex SERVFAIL; the read, the shed and the write allocate nothing.
func TestShedDatagramAllocatesNothing(t *testing.T) {
	srv := NewServer(degradeZone(), nil)
	srv.Workers, srv.QueueDepth, srv.Overload = 1, 1, OverloadServFail
	srv.SetDelay(2 * time.Second)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	conn, query := floodClient(t, addr)
	buf := make([]byte, 4096)
	// the first query occupies the worker and the second the queue; only
	// then do reflex answers come back
	for shed := false; !shed; {
		if _, err := conn.Write(query); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
		n, err := conn.Read(buf)
		shed = err == nil && n >= 12 && buf[3] == flagsServFail[1]
	}
	conn.SetReadDeadline(time.Now().Add(time.Minute))
	for i := 0; i < 100; i++ {
		exchange(t, conn, query, buf, flagsServFail)
	}
	got := mallocsPer(floodDatagrams, func() { exchange(t, conn, query, buf, flagsServFail) })
	t.Logf("%.3f allocations per shed datagram", got)
	if got > 0.05 {
		t.Errorf("%.3f allocations per shed datagram, want 0", got)
	}
}

// TestRRLDropAllocatesNothing: once its prefix's bucket exists and is
// empty, a rate-limited query is dropped without an allocation.
func TestRRLDropAllocatesNothing(t *testing.T) {
	srv := NewServer(degradeZone(), nil)
	srv.RRL = &RRLConfig{ResponsesPerSecond: 0.001}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	conn, query := floodClient(t, addr)
	buf := make([]byte, 4096)
	conn.SetReadDeadline(time.Now().Add(time.Minute))
	exchange(t, conn, query, buf, flagsAnswer) // the bucket's one token
	dropped := srv.m.rrlDropped
	// each query is sent once the last one's drop is counted, so the
	// socket's buffer never overflows and every query reaches the limiter
	var sent int64
	send := func() {
		if _, err := conn.Write(query); err != nil {
			t.Fatal(err)
		}
		sent++
		awaitCount(t, dropped, sent)
	}
	for i := 0; i < 100; i++ {
		send()
	}
	got := mallocsPer(floodDatagrams, send)
	t.Logf("%.3f allocations per dropped query", got)
	if got > 0.05 {
		t.Errorf("%.3f allocations per rate-limited drop, want 0", got)
	}
}

// TestRRLSlipAllocatesNothing: with Slip 1 every rate-limited query is
// answered by a minimal truncated response built in the query's own
// bytes, without an allocation.
func TestRRLSlipAllocatesNothing(t *testing.T) {
	srv := NewServer(degradeZone(), nil)
	srv.RRL = &RRLConfig{ResponsesPerSecond: 0.001, Slip: 1}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	conn, query := floodClient(t, addr)
	buf := make([]byte, 4096)
	conn.SetReadDeadline(time.Now().Add(time.Minute))
	exchange(t, conn, query, buf, flagsAnswer)
	for i := 0; i < 100; i++ {
		exchange(t, conn, query, buf, flagsSlip)
	}
	got := mallocsPer(floodDatagrams, func() { exchange(t, conn, query, buf, flagsSlip) })
	t.Logf("%.3f allocations per slipped query", got)
	if got > 0.05 {
		t.Errorf("%.3f allocations per rate-limited slip, want 0", got)
	}
}
