package authserver

import (
	"context"
	"fmt"
	"testing"
	"time"

	"dnsddos/internal/dnswire"
	"dnsddos/internal/netx"
	"dnsddos/internal/resolver"
)

// bigZone builds a zone whose NS response exceeds the 512-byte UDP limit.
func bigZone(t *testing.T) *Zone {
	t.Helper()
	zone := NewZone()
	for i := 0; i < 24; i++ {
		host := fmt.Sprintf("nameserver-%02d.very-long-provider-name.example", i)
		zone.AddNS("big.example", host)
		zone.AddA(host, netx.Addr(0x0e000001+i))
	}
	return zone
}

func TestUDPTruncationSetsTCBit(t *testing.T) {
	srv := NewServer(bigZone(t), nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := &resolver.UDPClient{Timeout: 2 * time.Second}
	m, _, err := client.Query(context.Background(), addr, "big.example", dnswire.TypeNS)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Header.Truncated {
		t.Fatal("oversized UDP answer must carry the TC bit")
	}
	if len(m.Answers) != 0 {
		t.Errorf("truncated response carries %d answers", len(m.Answers))
	}
}

func TestTCPCarriesFullAnswer(t *testing.T) {
	srv := NewServer(bigZone(t), nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	m, err := QueryTCP(ctx, addr, "big.example", dnswire.TypeNS)
	if err != nil {
		t.Fatal(err)
	}
	if m.Header.Truncated {
		t.Error("TCP answers are never truncated")
	}
	if len(m.Answers) != 24 {
		t.Errorf("TCP answers = %d, want 24", len(m.Answers))
	}
}

// TestQueryWithTCPFallback walks the TC → TCP retry a stub makes: the UDP
// answer carries TC and nothing else, and the same question over TCP gets
// the whole RRset.
func TestQueryWithTCPFallback(t *testing.T) {
	srv := NewServer(bigZone(t), nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	m, _, err := (&resolver.UDPClient{Timeout: 2 * time.Second}).Query(ctx, addr, "big.example", dnswire.TypeNS)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Header.Truncated {
		t.Fatal("oversized UDP answer must carry the TC bit")
	}
	m, rtt, err := (&resolver.TCPClient{Timeout: 2 * time.Second}).Query(ctx, addr, "big.example", dnswire.TypeNS)
	if err != nil {
		t.Fatal(err)
	}
	if m.Header.Truncated || len(m.Answers) != 24 {
		t.Errorf("TCP answer: truncated=%v answers=%d", m.Header.Truncated, len(m.Answers))
	}
	if rtt <= 0 {
		t.Error("TCP exchange reported no RTT")
	}
}

func TestSmallAnswerNotTruncated(t *testing.T) {
	zone := NewZone()
	zone.AddNS("small.example", "ns1.p.example")
	zone.AddA("ns1.p.example", netx.MustParseAddr("192.0.2.1"))
	srv := NewServer(zone, nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := &resolver.UDPClient{Timeout: 2 * time.Second}
	m, _, err := client.Query(context.Background(), addr, "small.example", dnswire.TypeNS)
	if err != nil {
		t.Fatal(err)
	}
	if m.Header.Truncated {
		t.Error("small answer must not carry the TC bit")
	}
	if len(m.Answers) != 1 {
		t.Errorf("answers = %d", len(m.Answers))
	}
}

func TestEDNSAvoidsTruncation(t *testing.T) {
	srv := NewServer(bigZone(t), nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// the same big response that truncates at 512 bytes fits in a
	// 4096-byte EDNS budget
	client := &resolver.UDPClient{Timeout: 2 * time.Second, EDNSPayload: 4096}
	m, _, err := client.Query(context.Background(), addr, "big.example", dnswire.TypeNS)
	if err != nil {
		t.Fatal(err)
	}
	if m.Header.Truncated {
		t.Fatal("EDNS-advertised budget should avoid truncation")
	}
	if len(m.Answers) != 24 {
		t.Errorf("answers = %d, want 24", len(m.Answers))
	}
}

func TestEDNSTooSmallStillTruncates(t *testing.T) {
	srv := NewServer(bigZone(t), nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := &resolver.UDPClient{Timeout: 2 * time.Second, EDNSPayload: 600}
	m, _, err := client.Query(context.Background(), addr, "big.example", dnswire.TypeNS)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Header.Truncated {
		t.Fatal("600-byte budget cannot hold the big response; want TC")
	}
	// the truncated response echoes an OPT record
	if _, ok := m.EDNS(); !ok {
		t.Error("truncated response should echo EDNS")
	}
}
