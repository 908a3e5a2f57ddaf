package resolver

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"dnsddos/internal/dnswire"
)

// UDPClient issues real DNS queries over UDP sockets, used by the live
// integration path (internal/authserver) and the degraded-mode sweep
// (internal/e2ebench). It retries nothing by itself; callers own retry policy. Every query gets
// its own socket, and with it its own source port (RFC 5452 §9.2); its
// datagram buffer comes from a pool shared by all clients, and the
// message it returns is freshly decoded and the caller's to keep.
type UDPClient struct {
	// Timeout bounds one query round trip.
	Timeout time.Duration
	// EDNSPayload, when nonzero, attaches an EDNS OPT record advertising
	// this UDP payload size (RFC 6891), letting servers skip truncation
	// for responses up to that size.
	EDNSPayload uint16
	// Wrap, when set, wraps the dialed socket before any traffic flows —
	// the fault-injection hook (e.g. faultinject.WrapDatagram).
	Wrap func(net.Conn) net.Conn
}

// udpBufPool holds datagram buffers of at least minUDPBuf bytes: a query
// is encoded into one and sent, then the same bytes take the response
// (a TCPClient's too, behind its length, when the response fits).
// Nothing decoded from a buffer points into it, so it goes back when the
// query returns.
const minUDPBuf = 4096

var udpBufPool = sync.Pool{New: func() any {
	b := make([]byte, minUDPBuf)
	return &b
}}

// udpAddr turns "host:port" into a socket address: an IP literal is
// parsed as one, anything else is looked up.
func udpAddr(addr string) (*net.UDPAddr, error) {
	if ap, err := netip.ParseAddrPort(addr); err == nil {
		return net.UDPAddrFromAddrPort(ap), nil
	}
	return net.ResolveUDPAddr("udp", addr)
}

// appendQuery encodes one question under id onto dst, with an EDNS OPT
// record advertising payload when it is nonzero. The message lives on the
// stack and only its bytes outlive the call; the encoder writes the name
// in canonical form. The OPT record is the one AttachEDNS would append
// (root owner, CLASS = the payload size, RFC 6891 §6.1.2), written in
// place: AttachEDNS stores through its receiver, which would move the
// message's sections to the heap.
func appendQuery(dst []byte, id uint16, name string, qtype dnswire.Type, payload uint16) ([]byte, error) {
	opt := []dnswire.RR{{Type: dnswire.TypeOPT, Class: dnswire.Class(payload)}}
	if payload == 0 {
		opt = nil
	}
	q := dnswire.Message{
		Header:     dnswire.Header{ID: id},
		Questions:  []dnswire.Question{{Name: name, Type: qtype, Class: dnswire.ClassIN}},
		Additional: opt,
	}
	return dnswire.AppendEncode(dst, &q)
}

// queryID draws a query ID from crypto/rand (RFC 5452 §9.2).
func queryID() (uint16, error) {
	var idb [2]byte
	if _, err := rand.Read(idb[:]); err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint16(idb[:]), nil
}

// Query sends a question to the server at addr ("host:port") and returns
// the decoded response and the measured round-trip time. A context that
// is already done fails the query before anything is sent; after that,
// ctx bounds the wait for the response through its deadline.
func (c *UDPClient) Query(ctx context.Context, addr, name string, qtype dnswire.Type) (*dnswire.Message, time.Duration, error) {
	raddr, err := udpAddr(addr)
	if err != nil {
		return nil, 0, fmt.Errorf("resolver: dial %s: %w", addr, err)
	}
	return c.query(ctx, addr, raddr, name, qtype)
}

// query is Query at raddr, addr's socket address parsed by the caller (a
// LiveResolver parses each server's once).
func (c *UDPClient) query(ctx context.Context, addr string, raddr *net.UDPAddr, name string, qtype dnswire.Type) (*dnswire.Message, time.Duration, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, fmt.Errorf("resolver: dial %s: %w", addr, err)
	}
	timeout := c.Timeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	// connecting a UDP socket sends nothing and does not block, so the
	// dial needs neither ctx nor a timeout of its own
	uc, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return nil, 0, fmt.Errorf("resolver: dial %s: %w", addr, err)
	}
	defer uc.Close()
	var conn net.Conn = uc
	if c.Wrap != nil {
		conn = c.Wrap(conn)
	}

	id, err := queryID()
	if err != nil {
		return nil, 0, err
	}
	// The buffer must cover what we invited the server to send: one
	// smaller than the advertised EDNS payload makes the kernel silently
	// truncate big responses, which then fail to decode (see
	// udp_fallback_test.go).
	bp := udpBufPool.Get().(*[]byte)
	defer udpBufPool.Put(bp)
	if size := max(minUDPBuf, int(c.EDNSPayload)); len(*bp) < size {
		*bp = make([]byte, size)
	}
	buf := *bp
	wire, err := appendQuery(buf[:0], id, name, qtype, c.EDNSPayload)
	if err != nil {
		return nil, 0, err
	}
	deadline := time.Now().Add(timeout)
	if dl, ok := ctx.Deadline(); ok && dl.Before(deadline) {
		deadline = dl
	}
	if err := conn.SetDeadline(deadline); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if _, err := conn.Write(wire); err != nil {
		return nil, 0, fmt.Errorf("resolver: send: %w", err)
	}
	for {
		n, err := conn.Read(buf)
		if err != nil {
			return nil, 0, fmt.Errorf("resolver: recv: %w", err)
		}
		rtt := time.Since(start)
		m, err := dnswire.Decode(buf[:n])
		if err != nil {
			return nil, 0, err
		}
		if m.Header.ID != id || !m.Header.Response {
			continue // stray datagram; keep waiting until deadline
		}
		return m, rtt, nil
	}
}
