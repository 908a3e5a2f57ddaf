// wrap.go implements the socket wrappers that apply an Injector's
// verdicts to real traffic. Two shapes cover the live DNS path:
//
//   - WrapPacketConn: an unconnected UDP listener (authserver's socket),
//     read and written by netip.AddrPort, so an idle profile adds no
//     allocation to a datagram.
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
	"net/netip"
	"time"
)

// UDPConn is the unconnected datagram socket PacketConn wraps: reads and
// writes that carry the peer as a netip.AddrPort, as *net.UDPConn's do.
// It is the method set of authserver.UDPConn, named here so that the
// wrapper does not import the server it is plugged into.
type UDPConn interface {
	ReadFromUDPAddrPort(b []byte) (int, netip.AddrPort, error)
	WriteToUDPAddrPort(b []byte, addr netip.AddrPort) (int, error)
	Close() error
	LocalAddr() net.Addr
}

// PacketConn wraps a UDPConn with fault injection, and is one itself.
type PacketConn struct {
	UDPConn
	inj *Injector
}

// WrapPacketConn wraps an unconnected UDP socket (a listener):
// cmd/serve's and internal/e2ebench's fault flags, and the authserver and
// resolver tests, wrap a server's listener with it.
func WrapPacketConn(c UDPConn, inj *Injector) *PacketConn {
	return &PacketConn{UDPConn: c, inj: inj}
}

// ReadFromUDPAddrPort applies inbound faults: dropped datagrams are
// consumed and never surface, corrupted ones are flipped, and delay is
// served before the datagram is delivered.
func (c *PacketConn) ReadFromUDPAddrPort(b []byte) (int, netip.AddrPort, error) {
	for {
		n, addr, err := c.UDPConn.ReadFromUDPAddrPort(b)
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

// WriteToUDPAddrPort applies outbound faults. Dropped datagrams report
// success, as a real network would.
func (c *PacketConn) WriteToUDPAddrPort(b []byte, addr netip.AddrPort) (int, error) {
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
	if _, err := c.UDPConn.WriteToUDPAddrPort(out, addr); err != nil {
		return 0, err
	}
	if v.duplicate {
		c.UDPConn.WriteToUDPAddrPort(out, addr)
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
