package authserver

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"dnsddos/internal/dnswire"
	"dnsddos/internal/netx"
	"dnsddos/internal/resolver"
)

// TestConcurrentLoadUDPAndTCP hammers the server from many goroutines over
// both transports simultaneously; run under -race it exercises the reader
// fan-in, the worker pool, and the per-connection TCP handlers.
func TestConcurrentLoadUDPAndTCP(t *testing.T) {
	zone := NewZone()
	zone.AddNS("example.nl", "ns1.dns.example")
	zone.AddNS("example.nl", "ns2.dns.example")
	zone.AddA("ns1.dns.example", netx.MustParseAddr("192.0.2.1"))
	zone.AddA("ns2.dns.example", netx.MustParseAddr("192.0.2.2"))
	srv := NewServer(zone, nil)
	srv.Workers = 4
	srv.Readers = 2
	srv.MaxConns = 64
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const goroutines = 16
	const perGoroutine = 10
	errs := make(chan error, goroutines*perGoroutine)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client := &resolver.UDPClient{Timeout: 5 * time.Second}
			for i := 0; i < perGoroutine; i++ {
				if (g+i)%2 == 0 {
					m, _, err := client.Query(context.Background(), addr, "example.nl", dnswire.TypeNS)
					if err != nil {
						errs <- fmt.Errorf("udp: %w", err)
					} else if len(m.Answers) != 2 {
						errs <- fmt.Errorf("udp answers = %d", len(m.Answers))
					}
				} else {
					ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
					m, err := QueryTCP(ctx, addr, "example.nl", dnswire.TypeNS)
					cancel()
					if err != nil {
						errs <- fmt.Errorf("tcp: %w", err)
					} else if len(m.Answers) != 2 {
						errs <- fmt.Errorf("tcp answers = %d", len(m.Answers))
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if counter(srv, "udp_answered") == 0 || counter(srv, "tcp_queries") == 0 {
		t.Errorf("counters show no traffic: %v", srv.Metrics().Snapshot().Counters)
	}
}

// TestDelayedAnswerDoesNotBlockOthers is the regression test for the
// single-goroutine UDP loop: a slow in-flight answer must not stall other
// queries, and the Delay knob is atomic so it can be flipped mid-run.
func TestDelayedAnswerDoesNotBlockOthers(t *testing.T) {
	zone := NewZone()
	zone.AddNS("slow.example", "ns1.slow.example")
	srv := NewServer(zone, nil)
	srv.Workers = 4
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	srv.SetDelay(500 * time.Millisecond)
	slowDone := make(chan error, 1)
	go func() {
		client := &resolver.UDPClient{Timeout: 3 * time.Second}
		_, _, err := client.Query(context.Background(), addr, "slow.example", dnswire.TypeNS)
		slowDone <- err
	}()
	// give the slow query time to enter its worker's Delay sleep
	time.Sleep(50 * time.Millisecond)
	srv.SetDelay(0)

	client := &resolver.UDPClient{Timeout: 3 * time.Second}
	start := time.Now()
	if _, _, err := client.Query(context.Background(), addr, "slow.example", dnswire.TypeNS); err != nil {
		t.Fatalf("fast query failed: %v", err)
	}
	if fast := time.Since(start); fast > 300*time.Millisecond {
		t.Errorf("query behind a delayed answer took %v; the delayed answer blocked the pool", fast)
	}
	if err := <-slowDone; err != nil {
		t.Errorf("delayed query must still be answered: %v", err)
	}
}

// TestTCPConnCap verifies that connections beyond MaxConns are refused
// while admitted connections keep working.
func TestTCPConnCap(t *testing.T) {
	zone := NewZone()
	zone.AddNS("example.nl", "ns1.dns.example")
	srv := NewServer(zone, nil)
	srv.MaxConns = 1
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// occupy the single slot with an idle admitted connection
	held, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	deadline := time.Now().Add(2 * time.Second)
	for counter(srv, "tcp_accepted") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("held connection never accepted")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// the next connection is shed at accept: its query cannot complete
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := QueryTCP(ctx, addr, "example.nl", dnswire.TypeNS); err == nil {
		t.Error("query over the cap should fail")
	}
	if counter(srv, "tcp_rejected") == 0 {
		t.Errorf("counters = %v, want a rejected connection", srv.Metrics().Snapshot().Counters)
	}

	// the admitted connection still serves queries
	q := dnswire.NewQuery(7, "example.nl", dnswire.TypeNS)
	wire, err := dnswire.Encode(q)
	if err != nil {
		t.Fatal(err)
	}
	framed := append([]byte{byte(len(wire) >> 8), byte(len(wire))}, wire...)
	held.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := held.Write(framed); err != nil {
		t.Fatal(err)
	}
	lenb := make([]byte, 2)
	if _, err := held.Read(lenb); err != nil {
		t.Fatalf("admitted connection stopped answering: %v", err)
	}
}

// TestIPv6Listen binds the server on the IPv6 loopback and queries it over
// both transports, skipping on kernels without IPv6.
func TestIPv6Listen(t *testing.T) {
	zone := NewZone()
	zone.AddNS("example.nl", "ns1.dns.example")
	zone.AddA("ns1.dns.example", netx.MustParseAddr("192.0.2.1"))
	srv := NewServer(zone, nil)
	addr, err := srv.Start("[::1]:0")
	if err != nil {
		t.Skipf("IPv6 loopback unavailable: %v", err)
	}
	defer srv.Close()
	if host, _, err := net.SplitHostPort(addr); err != nil || host != "::1" {
		t.Fatalf("bound addr = %q (host %q, err %v), want ::1", addr, host, err)
	}
	client := &resolver.UDPClient{Timeout: 2 * time.Second}
	m, _, err := client.Query(context.Background(), addr, "example.nl", dnswire.TypeNS)
	if err != nil {
		t.Fatalf("UDP over IPv6: %v", err)
	}
	if len(m.Answers) != 1 {
		t.Errorf("answers = %d", len(m.Answers))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := QueryTCP(ctx, addr, "example.nl", dnswire.TypeNS); err != nil {
		t.Fatalf("TCP over IPv6: %v", err)
	}
}

// TestCloseIsIdempotentUnderTraffic closes the server while queries are in
// flight; Close must drain and a second Close must be a no-op.
func TestCloseIsIdempotentUnderTraffic(t *testing.T) {
	zone := NewZone()
	zone.AddNS("example.nl", "ns1.dns.example")
	srv := NewServer(zone, nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &resolver.UDPClient{Timeout: 200 * time.Millisecond}
			// errors are expected once the socket closes
			client.Query(context.Background(), addr, "example.nl", dnswire.TypeNS)
		}()
	}
	time.Sleep(10 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}
