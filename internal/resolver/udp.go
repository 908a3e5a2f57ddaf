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
// integration path (internal/authserver) and the livedns example. It
// retries nothing by itself; callers own retry policy. Every query gets
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
// is encoded into one and sent, then the same bytes take the response.
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

// Query sends a question to the server at addr ("host:port") and returns
// the decoded response and the measured round-trip time. A context that
// is already done fails the query before anything is sent; after that,
// ctx bounds the wait for the response through its deadline.
func (c *UDPClient) Query(ctx context.Context, addr, name string, qtype dnswire.Type) (*dnswire.Message, time.Duration, error) {
	if err := ctx.Err(); err != nil {
		return nil, 0, fmt.Errorf("resolver: dial %s: %w", addr, err)
	}
	timeout := c.Timeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	raddr, err := udpAddr(addr)
	if err != nil {
		return nil, 0, fmt.Errorf("resolver: dial %s: %w", addr, err)
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

	var idb [2]byte
	if _, err := rand.Read(idb[:]); err != nil {
		return nil, 0, err
	}
	id := binary.BigEndian.Uint16(idb[:])
	q := dnswire.NewQuery(id, name, qtype)
	if c.EDNSPayload > 0 {
		q.AttachEDNS(dnswire.EDNS{UDPPayload: c.EDNSPayload})
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
	wire, err := dnswire.AppendEncode(buf[:0], q)
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

// QueryWithTCPFallback queries over UDP and, when the server truncates the
// answer (TC bit — responses past the 512-byte classic limit, §6.2),
// retries the same question through tcp — any Client, normally a
// *TCPClient. The returned RTT covers the full exchange, as a stub
// resolver experiences it.
func (c *UDPClient) QueryWithTCPFallback(ctx context.Context, addr, name string, qtype dnswire.Type, tcp Client) (*dnswire.Message, time.Duration, error) {
	m, rtt, err := c.Query(ctx, addr, name, qtype)
	if err != nil {
		return nil, 0, err
	}
	if !m.Header.Truncated {
		return m, rtt, nil
	}
	start := time.Now()
	full, _, err := tcp.Query(ctx, addr, name, qtype)
	if err != nil {
		return nil, 0, fmt.Errorf("resolver: tcp fallback: %w", err)
	}
	return full, rtt + time.Since(start), nil
}
