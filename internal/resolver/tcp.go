package resolver

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"time"

	"dnsddos/internal/dnswire"
)

// TCPClient issues length-prefixed DNS queries over TCP (RFC 1035
// §4.2.2) — the fallback transport a stub resolver switches to when a
// UDP answer comes back truncated, and the protocol most attacks in the
// study target (§6.2).
type TCPClient struct {
	// Timeout bounds one query exchange (dial + write + read); zero
	// means 5s, or the context deadline if sooner.
	Timeout time.Duration
	// Wrap, when set, wraps the dialed connection — the fault-injection
	// hook (e.g. faultinject.WrapStream).
	Wrap func(net.Conn) net.Conn
}

// Query sends one question over TCP and returns the decoded response and
// the round-trip time of the whole exchange (dial through decode — what a
// stub resolver falling back to TCP experiences). The response ID must
// match the query ID (anti-spoofing, mirroring the UDP client's check).
func (c *TCPClient) Query(ctx context.Context, addr, name string, qtype dnswire.Type) (*dnswire.Message, time.Duration, error) {
	timeout := c.Timeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	start := time.Now()
	dctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	var d net.Dialer
	conn, err := d.DialContext(dctx, "tcp", addr)
	if err != nil {
		return nil, 0, fmt.Errorf("resolver: tcp dial %s: %w", addr, err)
	}
	defer conn.Close()
	if c.Wrap != nil {
		conn = c.Wrap(conn)
	}
	deadline := time.Now().Add(timeout)
	if dl, ok := ctx.Deadline(); ok && dl.Before(deadline) {
		deadline = dl
	}
	if err := conn.SetDeadline(deadline); err != nil {
		return nil, 0, err
	}
	var idb [2]byte
	if _, err := rand.Read(idb[:]); err != nil {
		return nil, 0, err
	}
	id := binary.BigEndian.Uint16(idb[:])
	// the message goes behind two bytes kept for its length
	framed, err := dnswire.AppendEncode(make([]byte, 2, 512), dnswire.NewQuery(id, name, qtype))
	if err != nil {
		return nil, 0, err
	}
	binary.BigEndian.PutUint16(framed, uint16(len(framed)-2))
	if _, err := conn.Write(framed); err != nil {
		return nil, 0, fmt.Errorf("resolver: tcp send: %w", err)
	}
	var lenb [2]byte
	if _, err := io.ReadFull(conn, lenb[:]); err != nil {
		return nil, 0, fmt.Errorf("resolver: tcp recv: %w", err)
	}
	buf := make([]byte, binary.BigEndian.Uint16(lenb[:]))
	if _, err := io.ReadFull(conn, buf); err != nil {
		return nil, 0, fmt.Errorf("resolver: tcp recv: %w", err)
	}
	rtt := time.Since(start)
	m, err := dnswire.Decode(buf)
	if err != nil {
		return nil, 0, err
	}
	if m.Header.ID != id {
		return nil, 0, fmt.Errorf("resolver: tcp response ID %#04x does not match query ID %#04x", m.Header.ID, id)
	}
	return m, rtt, nil
}
