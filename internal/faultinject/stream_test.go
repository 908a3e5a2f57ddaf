package faultinject

import (
	"bytes"
	"errors"
	"io"
	"net"
	"syscall"
	"testing"
	"time"
)

// stream_test.go pins the stream-coherent fault subset on real TCP
// sockets: a byte stream cannot lose, duplicate, reorder, or shorten
// bytes and stay decodable, so StreamConn must translate the datagram
// fault model rather than apply it literally.

// tcpPair returns both ends of a loopback TCP connection.
func tcpPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := l.Accept()
		ch <- res{c, err}
	}()
	client, err = net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	t.Cleanup(func() { client.Close(); r.c.Close() })
	return client, r.c
}

// TestStreamDuplicateReorderTruncateNoOp: the datagram-only faults must
// be inert on streams — every written byte arrives exactly once, in
// order, at full length, even with all three probabilities pinned to 1.
func TestStreamDuplicateReorderTruncateNoOp(t *testing.T) {
	client, server := tcpPair(t)
	inj := New(7)
	inj.SetProfile(Profile{Duplicate: 1, Reorder: 1, Truncate: 1})
	sc := WrapStream(client, inj)

	writes := [][]byte{
		[]byte("frame-one"),
		[]byte("frame-two"),
		[]byte("frame-three"),
	}
	var want bytes.Buffer
	go func() {
		for _, w := range writes {
			if _, err := sc.Write(w); err != nil {
				t.Errorf("write: %v", err)
			}
		}
		sc.Close()
	}()
	for _, w := range writes {
		want.Write(w)
	}
	got, err := io.ReadAll(server)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("stream mangled: got %q, want %q", got, want.Bytes())
	}
}

// TestStreamCorruptFlipsOneByteInCopy: corruption on a stream damages
// exactly one byte of what goes on the wire — length preserved, order
// preserved — and never the caller's buffer, which the control plane
// may retain for retry.
func TestStreamCorruptFlipsOneByteInCopy(t *testing.T) {
	client, server := tcpPair(t)
	inj := New(11)
	inj.SetProfile(Profile{Corrupt: 1})
	sc := WrapStream(client, inj)

	orig := []byte("payload-under-test")
	sent := append([]byte(nil), orig...)
	go func() {
		if _, err := sc.Write(sent); err != nil {
			t.Errorf("write: %v", err)
		}
		sc.Close()
	}()
	got, err := io.ReadAll(server)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sent, orig) {
		t.Errorf("caller's buffer mutated: %q", sent)
	}
	if len(got) != len(orig) {
		t.Fatalf("corrupt changed length: got %d bytes, want %d", len(got), len(orig))
	}
	diff := 0
	for i := range got {
		if got[i] != orig[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Errorf("corrupt flipped %d bytes, want exactly 1 (got %q)", diff, got)
	}
}

// TestStreamDropIsConnReset: Drop on a stream aborts the connection with
// ECONNRESET — the caller-visible signature of a killed peer, which is
// what lets chaos tests stand in for SIGKILL.
func TestStreamDropIsConnReset(t *testing.T) {
	client, _ := tcpPair(t)
	inj := New(3)
	inj.SetProfile(Profile{Drop: 1})
	sc := WrapStream(client, inj)
	_, err := sc.Write([]byte("doomed"))
	if !errors.Is(err, syscall.ECONNRESET) {
		t.Errorf("stream drop returned %v, want ECONNRESET", err)
	}
	// the underlying connection must be dead too, not just the one write
	if _, err := client.Write([]byte("after")); err == nil {
		t.Error("underlying connection still writable after stream drop")
	}
}

// TestStreamReadLatency: latency applies to reads, delaying delivery
// without changing bytes.
func TestStreamReadLatency(t *testing.T) {
	client, server := tcpPair(t)
	inj := New(5)
	inj.SetProfile(Profile{Latency: 30 * time.Millisecond})
	sc := WrapStream(client, inj)

	go server.Write([]byte("pong"))
	buf := make([]byte, 16)
	start := time.Now()
	n, err := sc.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Errorf("read returned after %v, want >= 30ms of injected latency", elapsed)
	}
	if string(buf[:n]) != "pong" {
		t.Errorf("latency changed bytes: %q", buf[:n])
	}
}
