package faultinject

import (
	"bytes"
	"net"
	"net/netip"
	"testing"
	"time"
)

// fakePacketConn is an in-memory UDPConn: reads pop from inbox, writes
// append to outbox.
type fakePacketConn struct {
	inbox  [][]byte
	outbox [][]byte
	addrs  []netip.AddrPort
}

// peerAddr is where every fake datagram comes from, fakeAddr where the
// tests send theirs.
var (
	peerAddr = netip.MustParseAddrPort("192.0.2.1:53")
	fakeAddr = netip.MustParseAddrPort("192.0.2.2:53")
)

func (c *fakePacketConn) ReadFromUDPAddrPort(b []byte) (int, netip.AddrPort, error) {
	if len(c.inbox) == 0 {
		return 0, netip.AddrPort{}, net.ErrClosed
	}
	p := c.inbox[0]
	c.inbox = c.inbox[1:]
	n := copy(b, p)
	return n, peerAddr, nil
}

func (c *fakePacketConn) WriteToUDPAddrPort(b []byte, addr netip.AddrPort) (int, error) {
	c.outbox = append(c.outbox, append([]byte(nil), b...))
	c.addrs = append(c.addrs, addr)
	return len(b), nil
}

func (c *fakePacketConn) Close() error        { return nil }
func (c *fakePacketConn) LocalAddr() net.Addr { return net.UDPAddrFromAddrPort(peerAddr) }

func TestWriteDrop(t *testing.T) {
	fc := &fakePacketConn{}
	inj := New(1)
	inj.SetProfile(Profile{Drop: 1})
	pc := WrapPacketConn(fc, inj)
	n, err := pc.WriteToUDPAddrPort([]byte("abc"), fakeAddr)
	if n != 3 || err != nil {
		t.Fatalf("dropped write must report success, got n=%d err=%v", n, err)
	}
	if len(fc.outbox) != 0 {
		t.Errorf("drop=1 leaked %d datagrams", len(fc.outbox))
	}
}

func TestReadDropConsumes(t *testing.T) {
	fc := &fakePacketConn{inbox: [][]byte{[]byte("one"), []byte("two")}}
	inj := New(1)
	inj.SetProfile(Profile{Drop: 1})
	pc := WrapPacketConn(fc, inj)
	buf := make([]byte, 16)
	if _, _, err := pc.ReadFromUDPAddrPort(buf); err == nil {
		t.Fatal("with drop=1 every datagram is consumed; read must surface the closed error")
	}
}

func TestDuplicate(t *testing.T) {
	fc := &fakePacketConn{}
	inj := New(1)
	inj.SetProfile(Profile{Duplicate: 1})
	pc := WrapPacketConn(fc, inj)
	pc.WriteToUDPAddrPort([]byte("abc"), fakeAddr)
	if len(fc.outbox) != 2 {
		t.Fatalf("duplicate=1 wrote %d datagrams, want 2", len(fc.outbox))
	}
	if !bytes.Equal(fc.outbox[0], fc.outbox[1]) {
		t.Error("duplicate datagrams must be identical")
	}
}

func TestCorrupt(t *testing.T) {
	fc := &fakePacketConn{}
	inj := New(1)
	inj.SetProfile(Profile{Corrupt: 1})
	pc := WrapPacketConn(fc, inj)
	orig := []byte{0x10, 0x20, 0x30, 0x40}
	pc.WriteToUDPAddrPort(orig, fakeAddr)
	if len(fc.outbox) != 1 {
		t.Fatalf("wrote %d datagrams, want 1", len(fc.outbox))
	}
	if bytes.Equal(fc.outbox[0], orig) {
		t.Error("corrupt=1 delivered the datagram unmodified")
	}
	if orig[0] != 0x10 || orig[1] != 0x20 || orig[2] != 0x30 || orig[3] != 0x40 {
		t.Error("corruption must not mutate the caller's buffer")
	}
	// exactly one bit differs
	diff := 0
	for i := range orig {
		for b := fc.outbox[0][i] ^ orig[i]; b != 0; b &= b - 1 {
			diff++
		}
	}
	if diff != 1 {
		t.Errorf("corruption flipped %d bits, want exactly 1", diff)
	}
}

func TestLatencyDelays(t *testing.T) {
	fc := &fakePacketConn{}
	inj := New(1)
	inj.SetProfile(Profile{Latency: 30 * time.Millisecond})
	pc := WrapPacketConn(fc, inj)
	start := time.Now()
	pc.WriteToUDPAddrPort([]byte("x"), fakeAddr)
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Errorf("write returned after %v, want ≥30ms of injected latency", d)
	}
}

func TestZeroProfilePassesThrough(t *testing.T) {
	fc := &fakePacketConn{inbox: [][]byte{[]byte("hello")}}
	pc := WrapPacketConn(fc, New(1))
	buf := make([]byte, 16)
	n, addr, err := pc.ReadFromUDPAddrPort(buf)
	if err != nil || string(buf[:n]) != "hello" || addr != peerAddr {
		t.Fatalf("healthy read: n=%d addr=%v err=%v", n, addr, err)
	}
	pc.WriteToUDPAddrPort([]byte("world"), fakeAddr)
	if len(fc.outbox) != 1 || string(fc.outbox[0]) != "world" {
		t.Fatalf("healthy write mangled: %q", fc.outbox)
	}
}

func TestDatagramConnFaults(t *testing.T) {
	// loopback UDP echo: server echoes every datagram back
	srv, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	go func() {
		buf := make([]byte, 1024)
		for {
			n, addr, err := srv.ReadFrom(buf)
			if err != nil {
				return
			}
			srv.WriteTo(buf[:n], addr)
		}
	}()
	conn, err := net.Dial("udp", srv.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	inj := New(1)
	dc := WrapDatagram(conn, inj)

	// healthy round trip
	dc.Write([]byte("ping"))
	dc.SetReadDeadline(time.Now().Add(time.Second))
	buf := make([]byte, 16)
	n, err := dc.Read(buf)
	if err != nil || string(buf[:n]) != "ping" {
		t.Fatalf("healthy echo: %q err=%v", buf[:n], err)
	}

	// outbound drop: nothing echoes, read times out
	inj.SetProfile(Profile{Drop: 1})
	dc.Write([]byte("lost"))
	dc.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if _, err := dc.Read(buf); err == nil {
		t.Fatal("with drop=1 the echo must never arrive")
	}
}

// TestTruncateReadsOnly: Truncate cuts inbound datagrams below the DNS
// header so they can never decode, and leaves outbound datagrams whole —
// truncating a query on the way out would turn a decode fault into
// silent loss at the far end.
func TestTruncateReadsOnly(t *testing.T) {
	payload := []byte("0123456789abcdef") // 16 bytes, > truncateLen
	fc := &fakePacketConn{inbox: [][]byte{append([]byte(nil), payload...)}}
	inj := New(1)
	inj.SetProfile(Profile{Truncate: 1})
	pc := WrapPacketConn(fc, inj)

	buf := make([]byte, 64)
	n, _, err := pc.ReadFromUDPAddrPort(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != truncateLen {
		t.Errorf("truncated read delivered %d bytes, want %d", n, truncateLen)
	}
	if n >= 12 {
		t.Error("a truncated datagram must be shorter than a DNS header")
	}
	if !bytes.Equal(buf[:n], payload[:n]) {
		t.Error("truncation must cut, not rewrite, the prefix")
	}

	if _, err := pc.WriteToUDPAddrPort(payload, fakeAddr); err != nil {
		t.Fatal(err)
	}
	if len(fc.outbox) != 1 || !bytes.Equal(fc.outbox[0], payload) {
		t.Errorf("outbound datagram altered under Truncate: %q", fc.outbox)
	}

	// short datagrams pass through whole — there is nothing left to cut
	fc.inbox = [][]byte{[]byte("abc")}
	n, _, err = pc.ReadFromUDPAddrPort(buf)
	if err != nil || n != 3 {
		t.Errorf("short datagram: n=%d err=%v, want 3 bytes intact", n, err)
	}
}
