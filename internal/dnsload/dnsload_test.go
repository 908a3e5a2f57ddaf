package dnsload

import (
	"context"
	"net"
	"runtime"
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

// startServer brings up a small authoritative zone on loopback, with an
// optional fault injector on its UDP listener.
func startServer(t *testing.T, inj *faultinject.Injector) string {
	t.Helper()
	zone := authserver.NewZone()
	zone.AddNS("load.example", "ns1.load.example")
	zone.AddNS("load.example", "ns2.load.example")
	zone.AddA("ns1.load.example", netx.MustParseAddr("192.0.2.1"))
	zone.AddA("ns2.load.example", netx.MustParseAddr("192.0.2.2"))
	srv := authserver.NewServer(zone, nil)
	if inj != nil {
		srv.WrapUDP = func(pc net.PacketConn) net.PacketConn {
			return faultinject.WrapPacketConn(pc, inj)
		}
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr
}

// lossyServer starts a server whose listener drops datagrams with the
// given probability.
func lossyServer(t *testing.T, seed uint64, drop float64) string {
	t.Helper()
	inj := faultinject.New(seed)
	inj.SetProfile(faultinject.Profile{Drop: drop})
	return startServer(t, inj)
}

// truncatingUDPClient returns a UDPClient whose socket cuts every
// answer below the DNS header's length, so none decodes.
func truncatingUDPClient(seed uint64) *resolver.UDPClient {
	inj := faultinject.New(seed)
	inj.SetProfile(faultinject.Profile{Truncate: 1})
	return &resolver.UDPClient{Wrap: func(c net.Conn) net.Conn { return faultinject.WrapDatagram(c, inj) }}
}

// refusedAddr returns a TCP address that refuses connections,
// deterministically: a listener closed at once.
func refusedAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func TestRunUDP(t *testing.T) {
	addr := startServer(t, nil)
	res, err := Run(context.Background(), Config{
		Addr:        addr,
		Names:       []string{"load.example", "missing.load.example"},
		Concurrency: 4,
		Queries:     200,
		Timeout:     2 * time.Second,
		Client:      &resolver.UDPClient{},
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
	addr := startServer(t, nil)
	res, err := Run(context.Background(), Config{
		Addr:        addr,
		Names:       []string{"load.example"},
		Concurrency: 2,
		Queries:     50,
		Timeout:     2 * time.Second,
		Client:      &resolver.TCPClient{},
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

// TestSummary: the run's report names what was sent, the latency
// quantiles and the response codes.
func TestSummary(t *testing.T) {
	addr := startServer(t, nil)
	res, err := Run(context.Background(), Config{
		Addr:        addr,
		Names:       []string{"load.example"},
		Concurrency: 2,
		Queries:     40,
		Timeout:     2 * time.Second,
		Client:      &resolver.UDPClient{},
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
	client := &resolver.UDPClient{}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"missing addr", Config{Names: []string{"x"}, Queries: 1, Client: client}},
		{"missing names", Config{Addr: "127.0.0.1:1", Queries: 1, Client: client}},
		{"nil client", Config{Addr: "127.0.0.1:1", Names: []string{"x"}, Queries: 1}},
		{"zero queries", Config{Addr: "127.0.0.1:1", Names: []string{"x"}, Client: client}},
		{"negative queries", Config{Addr: "127.0.0.1:1", Names: []string{"x"}, Queries: -1, Client: client}},
	} {
		if _, err := Run(context.Background(), tc.cfg); err == nil {
			t.Errorf("%s: Run must refuse the config", tc.name)
		}
	}
}

// TestFailureClassificationTimeout: a listener that drops every datagram
// turns the whole run into classified timeouts, not generic errors.
func TestFailureClassificationTimeout(t *testing.T) {
	addr := lossyServer(t, 7, 1)
	res, err := Run(context.Background(), Config{
		Addr:        addr,
		Names:       []string{"load.example"},
		Concurrency: 2,
		Queries:     10,
		Timeout:     150 * time.Millisecond,
		Client:      &resolver.UDPClient{},
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
	if res.Errors != 0 {
		t.Errorf("misclassified: other=%d", res.Errors)
	}
	sum := res.Summary()
	if !strings.Contains(sum, "failures: timeout=10 other=0") {
		t.Errorf("summary missing the failure breakdown:\n%s", sum)
	}
}

// TestFailureClassificationDecode: an answer that arrives but cannot
// decode fails its query at once, as an error rather than a timeout: the
// Client returns the decode error without waiting out the deadline.
func TestFailureClassificationDecode(t *testing.T) {
	addr := startServer(t, nil)
	res, err := Run(context.Background(), Config{
		Addr:        addr,
		Names:       []string{"load.example"},
		Concurrency: 2,
		Queries:     6,
		Timeout:     150 * time.Millisecond,
		Client:      truncatingUDPClient(3),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != res.Sent || res.Errors == 0 {
		t.Errorf("other=%d sent=%d; garbled answers must classify as errors", res.Errors, res.Sent)
	}
	if res.Timeouts != 0 {
		t.Errorf("garbled answers misclassified as %d timeouts", res.Timeouts)
	}
	if !strings.Contains(res.Summary(), "other=6") {
		t.Errorf("summary missing the failure breakdown:\n%s", res.Summary())
	}
}

// TestFailureClassificationDial: a TCP target that refuses connections
// fails every query as an error. The query counts as sent: it was handed
// to the Client, which owns the dial.
func TestFailureClassificationDial(t *testing.T) {
	res, err := Run(context.Background(), Config{
		Addr:        refusedAddr(t),
		Names:       []string{"load.example"},
		Concurrency: 1,
		Queries:     5,
		Timeout:     200 * time.Millisecond,
		Client:      &resolver.TCPClient{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent != 5 || res.Errors != 5 || res.Timeouts != 0 {
		t.Errorf("sent=%d other=%d timeouts=%d, want 5/5/0", res.Sent, res.Errors, res.Timeouts)
	}
}

// TestPartialLossClassification: seeded 50% loss at the listener yields
// a mix of answers and timeouts whose counts add up.
func TestPartialLossClassification(t *testing.T) {
	addr := lossyServer(t, 99, 0.5)
	res, err := Run(context.Background(), Config{
		Addr:        addr,
		Names:       []string{"load.example"},
		Concurrency: 2,
		Queries:     40,
		Timeout:     150 * time.Millisecond,
		Client:      &resolver.UDPClient{},
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

// TestRunWithClient: accounting (sent/received/rcodes/truncated/
// timeouts) comes from the Client's answers and the RTT it reports, and
// the target address is only handed to the Client, never dialed.
func TestRunWithClient(t *testing.T) {
	var calls atomic.Int64
	stub := resolver.ClientFunc(func(ctx context.Context, addr, name string, qtype dnswire.Type) (*dnswire.Message, time.Duration, error) {
		if addr != "client.invalid:53" {
			t.Errorf("client got addr %q", addr)
		}
		if qtype != dnswire.TypeNS {
			t.Errorf("client got qtype %v, want NS", qtype)
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
		Addr:        "client.invalid:53",
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
		t.Error("truncated answers must be counted")
	}
	if res.RCodes[dnswire.RCodeNoError] != 90 {
		t.Errorf("rcodes = %v", res.RCodes)
	}
	if res.LatencyQuantile(0.5) != 3*time.Millisecond {
		t.Errorf("p50 = %v, want the client-reported 3ms", res.LatencyQuantile(0.5))
	}
}

// TestRunAllocsPerQuery bounds what the engine allocates per query
// around its Client: the per-query deadline's context and, amortized, the
// latency sample. A stub Client that allocates nothing isolates it. An
// error target declared in the send loop, where it escapes to the heap
// on every query and not only on failures, reads one more.
func TestRunAllocsPerQuery(t *testing.T) {
	answer := &dnswire.Message{Header: dnswire.Header{Response: true}}
	stub := resolver.ClientFunc(func(context.Context, string, string, dnswire.Type) (*dnswire.Message, time.Duration, error) {
		return answer, time.Millisecond, nil
	})
	run := func(n int) float64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Run(context.Background(), Config{
			Addr: "stub.invalid:53", Names: []string{"load.example"},
			Concurrency: 1, Queries: n, Client: stub,
		}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / float64(n)
	}
	run(100)
	const budget = 4.5 // it reads 4.0, with and without -race
	if got := run(20000); got > budget {
		t.Errorf("%.3f allocations per query, budget %.1f", got, budget)
	}
}
