package main

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"dnsddos/internal/authserver"
	"dnsddos/internal/dnswire"
	"dnsddos/internal/faultinject"
	"dnsddos/internal/netx"
	"dnsddos/internal/resolver"
)

// TestAddrHelpers covers the host:port splitting the startup banner uses,
// including the IPv6 literals the seed's byte-scanning helpers mangled.
func TestAddrHelpers(t *testing.T) {
	cases := []struct {
		addr, host, port string
	}{
		{"127.0.0.1:5353", "127.0.0.1", "5353"},
		{"[::1]:5353", "::1", "5353"},
		{"[2001:db8::53]:53", "2001:db8::53", "53"},
		{"localhost:53", "localhost", "53"},
	}
	for _, c := range cases {
		if got := hostOf(c.addr); got != c.host {
			t.Errorf("hostOf(%q) = %q, want %q", c.addr, got, c.host)
		}
		if got := portOf(c.addr); got != c.port {
			t.Errorf("portOf(%q) = %q, want %q", c.addr, got, c.port)
		}
	}
}

// TestIPv6ListenBanner starts the server the way main does on an IPv6
// listen address and checks the helpers yield a dig-usable host and port.
func TestIPv6ListenBanner(t *testing.T) {
	zone := authserver.NewZone()
	zone.AddNS("v6.example", "ns1.v6.example")
	zone.AddA("ns1.v6.example", netx.MustParseAddr("192.0.2.6"))
	srv := authserver.NewServer(zone, nil)
	bound, err := srv.Start("[::1]:0")
	if err != nil {
		t.Skipf("IPv6 loopback unavailable: %v", err)
	}
	defer srv.Close()
	if h := hostOf(bound); h != "::1" {
		t.Errorf("hostOf(%q) = %q, want ::1", bound, h)
	}
	if p := portOf(bound); p == "" || p == "0" {
		t.Errorf("portOf(%q) = %q, want a real port", bound, p)
	}
	client := &resolver.UDPClient{Timeout: 2 * time.Second}
	m, _, err := client.Query(context.Background(), bound, "v6.example", dnswire.TypeNS)
	if err != nil {
		t.Fatalf("query over IPv6 listen address: %v", err)
	}
	if len(m.Answers) != 1 {
		t.Errorf("answers = %d", len(m.Answers))
	}
}

// countingConn is the far end of a wrapped listener: it counts the
// datagrams the fault wrapper lets through.
type countingConn struct {
	authserver.UDPConn
	delivered int
}

func (c *countingConn) WriteToUDPAddrPort(b []byte, _ netip.AddrPort) (int, error) {
	c.delivered++
	return len(b), nil
}

// TestFaultWindow arms -fault-start 25s -fault-window 15s with a recording
// timer function instead of time.AfterFunc and fires its callbacks by
// hand: one timer at the start, the second armed only when the first
// fires, and a listener that is healthy before, drops everything during
// the window, and is healthy after.
func TestFaultWindow(t *testing.T) {
	var delays []time.Duration
	var pending []func()
	after := func(d time.Duration, f func()) *time.Timer {
		delays = append(delays, d)
		pending = append(pending, f)
		return nil
	}
	inj := faultinject.New(1)
	far := &countingConn{}
	pc := faultinject.WrapPacketConn(far, inj)
	// send reports whether one datagram written through the wrapper
	// reached the far end.
	send := func() bool {
		before := far.delivered
		pc.WriteToUDPAddrPort([]byte("query"), netip.AddrPort{})
		return far.delivered > before
	}
	fire := func() {
		t.Helper()
		if len(pending) == 0 {
			t.Fatal("no timer armed")
		}
		f := pending[0]
		pending = pending[1:]
		f()
	}

	armFaults(inj, faultinject.Profile{Drop: 1}, 25*time.Second, 15*time.Second, after)
	if len(delays) != 1 || delays[0] != 25*time.Second {
		t.Fatalf("timers armed before the start = %v, want [25s]", delays)
	}
	if !send() {
		t.Error("before the window: the datagram was dropped")
	}
	fire()
	if len(delays) != 2 || delays[1] != 15*time.Second {
		t.Fatalf("timers armed at the start = %v, want [25s 15s]", delays)
	}
	for range 10 {
		if send() {
			t.Fatal("inside the window: a datagram got through a 100% drop")
		}
	}
	fire()
	if !send() {
		t.Error("after the window: the datagram was dropped")
	}
	if len(pending) != 0 || len(delays) != 2 {
		t.Errorf("after the window: %d timers armed in all, %d pending, want 2 and 0", len(delays), len(pending))
	}

	// without a window the faults hold from the start, and no timer runs
	delays = nil
	armFaults(inj, faultinject.Profile{Drop: 1}, 25*time.Second, 0, after)
	if len(delays) != 0 {
		t.Errorf("no window armed timers %v", delays)
	}
	if send() {
		t.Error("without a window: the datagram got through a 100% drop")
	}
}
