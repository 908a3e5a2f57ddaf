package resolver_test

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"testing"
	"time"

	"dnsddos/internal/authserver"
	"dnsddos/internal/dnswire"
	"dnsddos/internal/nsset"
	"dnsddos/internal/resolver"
)

// startBigZone serves a domain whose NS RRset encodes past the classic
// 512-byte UDP limit (nsCount servers), forcing TC without EDNS.
func startBigZone(t *testing.T, nsCount int) string {
	t.Helper()
	zone := authserver.NewZone()
	for i := 0; i < nsCount; i++ {
		zone.AddNS("big.example", fmt.Sprintf("ns%03d.big.example", i))
	}
	srv := authserver.NewServer(zone, nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr
}

// TestLiveResolverTCPFallback: LiveResolver follows TC transparently and
// reports the transport it used. A 40-NS answer cannot fit 512 bytes, so
// the UDP reply carries TC and the full RRset arrives over TCP; a failing
// TCP leg fails the resolution instead of returning the truncated answer;
// a whole UDP answer never touches TCP.
func TestLiveResolverTCPFallback(t *testing.T) {
	closed := func(c net.Conn) net.Conn { c.Close(); return c }
	for _, tc := range []struct {
		name    string
		nsCount int
		wrapTCP func(net.Conn) net.Conn // nil: the real TCP leg
		status  nsset.QueryStatus
		usedTCP bool
	}{
		{"full_rrset_over_tcp", 40, nil, nsset.StatusOK, true},
		{"tcp_leg_fails", 40, closed, nsset.StatusTimeout, false},
		// a TCP leg here would fail the resolution
		{"whole_answer_skips_tcp", 2, closed, nsset.StatusOK, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr := startBigZone(t, tc.nsCount)
			if tc.nsCount > 2 {
				// without fallback the raw UDP answer is truncated and empty
				m, _, err := (&resolver.UDPClient{Timeout: 2 * time.Second}).Query(context.Background(), addr, "big.example", dnswire.TypeNS)
				if err != nil || !m.Header.Truncated || len(m.Answers) != 0 {
					t.Fatalf("want a truncated empty UDP answer, got %+v (err %v)", m, err)
				}
			}
			lr := resolver.NewLiveResolver(resolver.LiveConfig{
				PerTryTimeout: time.Second,
				MaxTries:      2,
				TCPFallback:   true,
				WrapTCP:       tc.wrapTCP,
			}, rand.New(rand.NewPCG(1, 0)))
			out := lr.Resolve(context.Background(), []string{addr}, "big.example", dnswire.TypeNS)
			if out.Status != tc.status || out.UsedTCP != tc.usedTCP {
				t.Fatalf("status %v, UsedTCP %v; want %v, %v", out.Status, out.UsedTCP, tc.status, tc.usedTCP)
			}
			if tc.status != nsset.StatusOK {
				if out.Msg != nil {
					t.Errorf("a failed resolution returned an answer: %+v", out.Msg)
				}
				return
			}
			if out.Msg == nil || out.Msg.Header.Truncated || len(out.Msg.Answers) != tc.nsCount {
				t.Errorf("answer incomplete, want %d NS: %+v", tc.nsCount, out.Msg)
			}
		})
	}
}

// TestUDPClientEDNSReadBuffer is the satellite regression: with a large
// advertised EDNS payload the read buffer must grow to match, or the
// kernel silently truncates the datagram and the decode fails. 280 NS
// records encode past 4096 bytes but under the advertised 16384.
func TestUDPClientEDNSReadBuffer(t *testing.T) {
	addr := startBigZone(t, 280)
	client := &resolver.UDPClient{Timeout: 2 * time.Second, EDNSPayload: 16384}
	m, _, err := client.Query(context.Background(), addr, "big.example", dnswire.TypeNS)
	if err != nil {
		t.Fatalf("big EDNS response failed to decode — read buffer too small? %v", err)
	}
	if m.Header.Truncated {
		t.Fatal("server truncated despite a sufficient EDNS advertisement")
	}
	if len(m.Answers) != 280 {
		t.Errorf("got %d answers, want 280", len(m.Answers))
	}
	wire, err := dnswire.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(wire) <= 4096 {
		t.Fatalf("test answer only %d bytes — does not exercise the >4096 path", len(wire))
	}
}
