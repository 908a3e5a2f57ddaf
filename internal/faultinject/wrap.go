// wrap.go implements the socket wrappers that apply an Injector's
// verdicts to real traffic. Three shapes cover the live DNS path:
//
//   - WrapPacketConn: an unconnected UDP listener (authserver's socket).
//   - WrapDatagram: a connected UDP client socket (resolver.UDPClient,
//     dnsload senders).
//   - WrapStream: a TCP connection; streams cannot lose or reorder bytes
//     and stay coherent, so Drop aborts the connection and only latency,
//     jitter, and corruption apply per write.
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
	"sync"
	"syscall"
	"time"
)

// PacketConn wraps a net.PacketConn with fault injection.
type PacketConn struct {
	net.PacketConn
	inj *Injector

	mu       sync.Mutex
	held     []byte // one-slot reorder buffer for writes
	heldAddr net.Addr
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
// a real network would. A reordered datagram is held in a one-slot
// buffer and released after the next write (or on Close).
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
	if v.reorder {
		c.mu.Lock()
		prev, prevAddr := c.held, c.heldAddr
		c.held = append([]byte(nil), out...)
		c.heldAddr = addr
		c.mu.Unlock()
		if prev != nil {
			c.PacketConn.WriteTo(prev, prevAddr)
		}
		return len(b), nil
	}
	if _, err := c.PacketConn.WriteTo(out, addr); err != nil {
		return 0, err
	}
	if v.duplicate {
		c.PacketConn.WriteTo(out, addr)
	}
	c.flushHeld()
	return len(b), nil
}

// flushHeld releases a reorder-held datagram after a later one was sent.
func (c *PacketConn) flushHeld() {
	c.mu.Lock()
	prev, prevAddr := c.held, c.heldAddr
	c.held, c.heldAddr = nil, nil
	c.mu.Unlock()
	if prev != nil {
		c.PacketConn.WriteTo(prev, prevAddr)
	}
}

// Close releases any reorder-held datagram, then closes the socket.
func (c *PacketConn) Close() error {
	c.flushHeld()
	return c.PacketConn.Close()
}

// DatagramConn wraps a connected UDP socket with fault injection.
type DatagramConn struct {
	net.Conn
	inj *Injector

	mu   sync.Mutex
	held []byte
}

// WrapDatagram wraps a connected datagram socket (net.Dial "udp"). No
// production path calls it: the resolver's and dnsload's tests wrap their
// client sockets with it through those packages' dial hooks.
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
	if v.reorder {
		c.mu.Lock()
		prev := c.held
		c.held = append([]byte(nil), out...)
		c.mu.Unlock()
		if prev != nil {
			c.Conn.Write(prev)
		}
		return len(b), nil
	}
	if _, err := c.Conn.Write(out); err != nil {
		return 0, err
	}
	if v.duplicate {
		c.Conn.Write(out)
	}
	c.mu.Lock()
	prev := c.held
	c.held = nil
	c.mu.Unlock()
	if prev != nil {
		c.Conn.Write(prev)
	}
	return len(b), nil
}

// StreamConn wraps a TCP connection with the stream-coherent subset of
// faults: latency+jitter per write and read, byte corruption per write,
// and Drop as connection abort (ECONNRESET to the caller).
type StreamConn struct {
	net.Conn
	inj *Injector
}

// WrapStream wraps a stream connection. No production path calls it:
// dnsload's and distjoin's tests wrap their connections with it.
func WrapStream(c net.Conn, inj *Injector) *StreamConn {
	return &StreamConn{Conn: c, inj: inj}
}

// Read delays inbound bytes by the profile's latency.
func (c *StreamConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if err != nil {
		return n, err
	}
	if v := c.inj.roll(); v.delay > 0 {
		time.Sleep(v.delay)
	}
	return n, nil
}

// Write applies latency, corruption, and — for Drop — connection abort.
func (c *StreamConn) Write(b []byte) (int, error) {
	v := c.inj.roll()
	if v.drop {
		c.Conn.Close()
		return 0, syscall.ECONNRESET
	}
	out := b
	if v.corrupt {
		out = append([]byte(nil), b...)
		c.inj.corruptByte(out)
	}
	if v.delay > 0 {
		time.Sleep(v.delay)
	}
	return c.Conn.Write(out)
}
