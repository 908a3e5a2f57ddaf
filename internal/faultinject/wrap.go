// wrap.go implements the socket wrappers that apply an Injector's
// verdicts to real traffic. Two shapes cover the live DNS path:
//
//   - WrapPacketConn: an unconnected UDP listener (authserver's socket).
//   - WrapDatagram: a connected UDP client socket (resolver.UDPClient).
//
// Faults are applied on both directions of whichever endpoint is
// wrapped, so wrapping one side of a healthy peer is enough to degrade
// the full round trip; each traversal charges Latency+Jitter once.
// Delays are synchronous (the calling goroutine sleeps), which keeps
// fault ordering deterministic under a seeded Injector and models
// head-of-line blocking on a congested path.
package faultinject

import (
	"net"
	"time"
)

// PacketConn wraps a net.PacketConn with fault injection.
type PacketConn struct {
	net.PacketConn
	inj *Injector
}

// WrapPacketConn wraps an unconnected packet socket (a UDP listener):
// cmd/serve's and internal/e2ebench's fault flags, and the authserver and
// resolver tests, wrap a server's listener with it.
func WrapPacketConn(c net.PacketConn, inj *Injector) *PacketConn {
	return &PacketConn{PacketConn: c, inj: inj}
}

// ReadFrom applies inbound faults: dropped datagrams are consumed and
// never surface, corrupted ones are flipped, and delay is served before
// the datagram is delivered.
func (c *PacketConn) ReadFrom(b []byte) (int, net.Addr, error) {
	for {
		n, addr, err := c.PacketConn.ReadFrom(b)
		if err != nil {
			return n, addr, err
		}
		v := c.inj.roll()
		if v.drop {
			continue
		}
		if v.truncate && n > truncateLen {
			n = truncateLen
		}
		if v.corrupt {
			c.inj.corruptByte(b[:n])
		}
		if v.delay > 0 {
			time.Sleep(v.delay)
		}
		return n, addr, nil
	}
}

// WriteTo applies outbound faults. Dropped datagrams report success, as
// a real network would.
func (c *PacketConn) WriteTo(b []byte, addr net.Addr) (int, error) {
	v := c.inj.roll()
	if v.drop {
		return len(b), nil
	}
	out := b
	if v.corrupt {
		out = append([]byte(nil), b...)
		c.inj.corruptByte(out)
	}
	if v.delay > 0 {
		time.Sleep(v.delay)
	}
	if _, err := c.PacketConn.WriteTo(out, addr); err != nil {
		return 0, err
	}
	if v.duplicate {
		c.PacketConn.WriteTo(out, addr)
	}
	return len(b), nil
}

// DatagramConn wraps a connected UDP socket with fault injection.
type DatagramConn struct {
	net.Conn
	inj *Injector
}

// WrapDatagram wraps a connected datagram socket (net.Dial "udp"). No
// production path calls it: the resolver's and dnsload's tests wrap
// resolver.UDPClient's sockets with it through its Wrap hook.
func WrapDatagram(c net.Conn, inj *Injector) *DatagramConn {
	return &DatagramConn{Conn: c, inj: inj}
}

// Read applies inbound faults; dropped datagrams are consumed silently,
// so a drop surfaces to the caller as its read deadline expiring —
// exactly how packet loss looks to a stub resolver.
func (c *DatagramConn) Read(b []byte) (int, error) {
	for {
		n, err := c.Conn.Read(b)
		if err != nil {
			return n, err
		}
		v := c.inj.roll()
		if v.drop {
			continue
		}
		if v.truncate && n > truncateLen {
			n = truncateLen
		}
		if v.corrupt {
			c.inj.corruptByte(b[:n])
		}
		if v.delay > 0 {
			time.Sleep(v.delay)
		}
		return n, nil
	}
}

// Write applies outbound faults; dropped datagrams report success.
func (c *DatagramConn) Write(b []byte) (int, error) {
	v := c.inj.roll()
	if v.drop {
		return len(b), nil
	}
	out := b
	if v.corrupt {
		out = append([]byte(nil), b...)
		c.inj.corruptByte(out)
	}
	if v.delay > 0 {
		time.Sleep(v.delay)
	}
	if _, err := c.Conn.Write(out); err != nil {
		return 0, err
	}
	if v.duplicate {
		c.Conn.Write(out)
	}
	return len(b), nil
}
