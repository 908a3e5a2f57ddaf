package dnsload

import (
	"context"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dnsddos/internal/authserver"
	"dnsddos/internal/dnswire"
	"dnsddos/internal/faultinject"
	"dnsddos/internal/netx"
	"dnsddos/internal/resolver"
)

// startServer brings up a small authoritative zone on loopback.
func startServer(t *testing.T) string {
	t.Helper()
	zone := authserver.NewZone()
	zone.AddNS("load.example", "ns1.load.example")
	zone.AddNS("load.example", "ns2.load.example")
	zone.AddA("ns1.load.example", netx.MustParseAddr("192.0.2.1"))
	zone.AddA("ns2.load.example", netx.MustParseAddr("192.0.2.2"))
	srv := authserver.NewServer(zone, nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr
}

func TestRunUDP(t *testing.T) {
	addr := startServer(t)
	res, err := Run(context.Background(), Config{
		Addr:        addr,
		Names:       []string{"load.example", "missing.load.example"},
		Concurrency: 4,
		Queries:     200,
		Timeout:     2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != 200 {
		t.Errorf("sent = %d, want 200", res.Sent)
	}
	if res.Received < 190 {
		t.Errorf("received = %d (loss %.1f%%); loopback should deliver nearly all",
			res.Received, 100*res.LossRate())
	}
	if res.RCodes[dnswire.RCodeNoError] == 0 || res.RCodes[dnswire.RCodeNXDomain] == 0 {
		t.Errorf("rcodes = %v, want both NOERROR and NXDOMAIN", res.RCodes)
	}
	if res.LatencyQuantile(0.5) <= 0 || res.LatencyQuantile(0.99) < res.LatencyQuantile(0.5) {
		t.Errorf("quantiles out of order: p50=%v p99=%v",
			res.LatencyQuantile(0.5), res.LatencyQuantile(0.99))
	}
	if res.QPS() <= 0 {
		t.Error("achieved rate must be positive")
	}
}

func TestRunTCP(t *testing.T) {
	addr := startServer(t)
	res, err := Run(context.Background(), Config{
		Addr:        addr,
		Names:       []string{"load.example"},
		Proto:       ProtoTCP,
		Concurrency: 2,
		Queries:     50,
		Timeout:     2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Received != 50 || res.Errors != 0 {
		t.Errorf("received=%d errors=%d, want 50/0", res.Received, res.Errors)
	}
	if res.RCodes[dnswire.RCodeNoError] != 50 {
		t.Errorf("rcodes = %v", res.RCodes)
	}
}

func TestRunPacedDuration(t *testing.T) {
	addr := startServer(t)
	res, err := Run(context.Background(), Config{
		Addr:        addr,
		Names:       []string{"load.example"},
		Concurrency: 2,
		TargetQPS:   400,
		Duration:    500 * time.Millisecond,
		Timeout:     time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 400 q/s over 0.5 s ≈ 200 queries; allow wide scheduling slack but
	// catch a broken pacer (which would send tens of thousands)
	if res.Sent < 20 || res.Sent > 400 {
		t.Errorf("paced run sent %d queries, want ≈200", res.Sent)
	}
}

// TestSummary: the run's report names what was sent, the latency
// quantiles and the response codes.
func TestSummary(t *testing.T) {
	addr := startServer(t)
	res, err := Run(context.Background(), Config{
		Addr:        addr,
		Names:       []string{"load.example"},
		Concurrency: 2,
		Queries:     40,
		Timeout:     2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := res.Summary()
	for _, want := range []string{"sent 40", "latency p50", "NOERROR"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(context.Background(), Config{Names: []string{"x"}}); err == nil {
		t.Error("missing addr must error")
	}
	if _, err := Run(context.Background(), Config{Addr: "127.0.0.1:1"}); err == nil {
		t.Error("missing names must error")
	}
	if _, err := Run(context.Background(), Config{Addr: "127.0.0.1:1", Names: []string{"x"}, Proto: "smoke"}); err == nil {
		t.Error("unknown proto must error")
	}
}

// garbleConn is a test wrapper that mangles every inbound datagram so it
// can never decode, while letting queries out intact.
type garbleConn struct{ net.Conn }

func (g garbleConn) Read(p []byte) (int, error) {
	n, err := g.Conn.Read(p)
	if n > 2 {
		n = 2 // too short for a DNS header: guaranteed decode failure
	}
	return n, err
}

// TestFailureClassificationTimeout: a client socket that drops every
// datagram turns the whole run into classified timeouts, not generic
// errors.
func TestFailureClassificationTimeout(t *testing.T) {
	addr := startServer(t)
	inj := faultinject.New(7)
	inj.SetProfile(faultinject.Profile{Drop: 1})
	res, err := Run(context.Background(), Config{
		Addr:        addr,
		Names:       []string{"load.example"},
		Concurrency: 2,
		Queries:     10,
		Timeout:     150 * time.Millisecond,
		Wrap:        func(c net.Conn) net.Conn { return faultinject.WrapDatagram(c, inj) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Received != 0 {
		t.Fatalf("total loss run received %d answers", res.Received)
	}
	if res.Timeouts != res.Sent || res.Timeouts == 0 {
		t.Errorf("timeouts=%d sent=%d; every lost query must classify as timeout", res.Timeouts, res.Sent)
	}
	if res.DialErrors != 0 || res.DecodeErrors != 0 || res.Errors != 0 {
		t.Errorf("misclassified: dial=%d decode=%d other=%d", res.DialErrors, res.DecodeErrors, res.Errors)
	}
	sum := res.Summary()
	if !strings.Contains(sum, "failures: timeout=") {
		t.Errorf("summary missing the failure breakdown:\n%s", sum)
	}
}

// TestFailureClassificationDecode: answers that arrive but cannot decode
// classify as decode failures (corruption), distinct from loss.
func TestFailureClassificationDecode(t *testing.T) {
	addr := startServer(t)
	res, err := Run(context.Background(), Config{
		Addr:        addr,
		Names:       []string{"load.example"},
		Concurrency: 2,
		Queries:     6,
		Timeout:     150 * time.Millisecond,
		Wrap:        func(c net.Conn) net.Conn { return garbleConn{c} },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DecodeErrors != res.Sent || res.DecodeErrors == 0 {
		t.Errorf("decode=%d sent=%d; garbled answers must classify as decode failures", res.DecodeErrors, res.Sent)
	}
	if res.Timeouts != 0 {
		t.Errorf("garbled answers misclassified as %d timeouts", res.Timeouts)
	}
	if !strings.Contains(res.Summary(), "decode=") {
		t.Errorf("summary missing decode breakdown:\n%s", res.Summary())
	}
}

// TestFailureClassificationDial: an unreachable TCP target counts as
// dial failures without inflating Sent.
func TestFailureClassificationDial(t *testing.T) {
	// a listener we immediately close: connection refused, deterministically
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	res, err := Run(context.Background(), Config{
		Addr:        addr,
		Names:       []string{"load.example"},
		Proto:       ProtoTCP,
		Concurrency: 1,
		Queries:     5,
		Timeout:     200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DialErrors != 5 {
		t.Errorf("dial errors = %d, want 5", res.DialErrors)
	}
	if res.Sent != 0 {
		t.Errorf("refused dials must not count as sent queries, got %d", res.Sent)
	}
}

// TestPartialLossClassification: seeded 50%% loss yields a mix of
// answers and timeouts whose counts add up.
func TestPartialLossClassification(t *testing.T) {
	addr := startServer(t)
	inj := faultinject.New(99)
	inj.SetProfile(faultinject.Profile{Drop: 0.5})
	res, err := Run(context.Background(), Config{
		Addr:        addr,
		Names:       []string{"load.example"},
		Concurrency: 2,
		Queries:     40,
		Timeout:     150 * time.Millisecond,
		Wrap:        func(c net.Conn) net.Conn { return faultinject.WrapDatagram(c, inj) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Received == 0 || res.Timeouts == 0 {
		t.Fatalf("50%% loss should mix answers (%d) and timeouts (%d)", res.Received, res.Timeouts)
	}
	if res.Received+res.Timeouts != res.Sent {
		t.Errorf("classification leaks queries: recv %d + timeout %d != sent %d",
			res.Received, res.Timeouts, res.Sent)
	}
}

// TestRunWithClient routes the load through a resolver.Client instead of
// raw sockets: accounting (sent/received/rcodes/truncated/timeouts) must
// come from the client's answers, and no real connection is dialed — the
// target address is never resolved.
func TestRunWithClient(t *testing.T) {
	var calls atomic.Int64
	stub := resolver.ClientFunc(func(ctx context.Context, addr, name string, qtype dnswire.Type) (*dnswire.Message, time.Duration, error) {
		if addr != "client.invalid:53" {
			t.Errorf("client got addr %q", addr)
		}
		n := calls.Add(1)
		if n%10 == 0 {
			return nil, 0, context.DeadlineExceeded
		}
		msg := &dnswire.Message{}
		msg.Header.Response = true
		msg.Header.RCode = dnswire.RCodeNoError
		if n%7 == 0 {
			msg.Header.Truncated = true
		}
		return msg, 3 * time.Millisecond, nil
	})
	res, err := Run(context.Background(), Config{
		Addr:        "client.invalid:53", // never dialed in client mode
		Names:       []string{"load.example"},
		Concurrency: 4,
		Queries:     100,
		Timeout:     time.Second,
		Client:      stub,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != 100 {
		t.Errorf("sent = %d, want 100", res.Sent)
	}
	if res.Received != 90 {
		t.Errorf("received = %d, want 90 (10%% injected timeouts)", res.Received)
	}
	if res.Timeouts != 10 {
		t.Errorf("timeouts = %d, want 10", res.Timeouts)
	}
	if res.Truncated == 0 {
		t.Error("truncated answers must be counted in client mode")
	}
	if res.RCodes[dnswire.RCodeNoError] != 90 {
		t.Errorf("rcodes = %v", res.RCodes)
	}
	if res.LatencyQuantile(0.5) != 3*time.Millisecond {
		t.Errorf("p50 = %v, want the client-reported 3ms", res.LatencyQuantile(0.5))
	}
}
