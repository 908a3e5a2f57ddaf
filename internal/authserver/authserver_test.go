package authserver

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"dnsddos/internal/dnsdb"
	"dnsddos/internal/dnswire"
	"dnsddos/internal/netx"
	"dnsddos/internal/resolver"
)

// startTestServer spins up a server for a small zone on loopback.
func startTestServer(t *testing.T) (string, *Server) {
	t.Helper()
	zone := NewZone()
	zone.AddNS("example.nl", "ns1.dns.example")
	zone.AddNS("example.nl", "ns2.dns.example")
	zone.AddA("ns1.dns.example", netx.MustParseAddr("192.0.2.1"))
	zone.AddA("ns2.dns.example", netx.MustParseAddr("192.0.2.2"))
	zone.AddA("www.example.nl", netx.MustParseAddr("203.0.113.80"))
	srv := NewServer(zone, nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr, srv
}

func TestUDPQueryNS(t *testing.T) {
	addr, _ := startTestServer(t)
	client := &resolver.UDPClient{Timeout: 2 * time.Second}
	msg, rtt, err := client.Query(context.Background(), addr, "Example.NL.", dnswire.TypeNS)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Header.RCode != dnswire.RCodeNoError || !msg.Header.Authoritative {
		t.Errorf("header = %+v", msg.Header)
	}
	if len(msg.Answers) != 2 {
		t.Fatalf("answers = %d", len(msg.Answers))
	}
	hosts := map[string]bool{}
	for _, rr := range msg.Answers {
		if rr.Type != dnswire.TypeNS || rr.Name != "example.nl" {
			t.Errorf("answer = %+v", rr)
		}
		hosts[rr.NS] = true
	}
	if !hosts["ns1.dns.example"] || !hosts["ns2.dns.example"] {
		t.Errorf("hosts = %v", hosts)
	}
	if len(msg.Additional) != 2 {
		t.Errorf("glue records = %d", len(msg.Additional))
	}
	if rtt <= 0 {
		t.Error("rtt must be positive")
	}
}

func TestUDPQueryA(t *testing.T) {
	addr, _ := startTestServer(t)
	client := &resolver.UDPClient{Timeout: 2 * time.Second}
	msg, _, err := client.Query(context.Background(), addr, "www.example.nl", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if len(msg.Answers) != 1 || msg.Answers[0].A != netx.MustParseAddr("203.0.113.80") {
		t.Errorf("answers = %+v", msg.Answers)
	}
}

func TestNXDomainWithSOA(t *testing.T) {
	addr, _ := startTestServer(t)
	client := &resolver.UDPClient{Timeout: 2 * time.Second}
	msg, _, err := client.Query(context.Background(), addr, "missing.example.nl", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Header.RCode != dnswire.RCodeNXDomain {
		t.Errorf("rcode = %v", msg.Header.RCode)
	}
	if len(msg.Authority) != 1 || msg.Authority[0].Type != dnswire.TypeSOA {
		t.Errorf("authority = %+v", msg.Authority)
	}
	// the SOA owner is the queried name's zone apex, not the root
	if got := msg.Authority[0].Name; got != "example.nl" {
		t.Errorf("SOA owner = %q, want zone apex %q", got, "example.nl")
	}
}

func TestNoDataForKnownName(t *testing.T) {
	addr, _ := startTestServer(t)
	client := &resolver.UDPClient{Timeout: 2 * time.Second}
	// example.nl exists (has NS) but no A record: NOERROR + SOA
	msg, _, err := client.Query(context.Background(), addr, "example.nl", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if msg.Header.RCode != dnswire.RCodeNoError || len(msg.Answers) != 0 {
		t.Errorf("nodata response = rcode %v, %d answers", msg.Header.RCode, len(msg.Answers))
	}
	if len(msg.Authority) != 1 {
		t.Errorf("authority = %+v", msg.Authority)
	}
}

func TestTCPQuery(t *testing.T) {
	addr, _ := startTestServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	msg, err := QueryTCP(ctx, addr, "example.nl", dnswire.TypeNS)
	if err != nil {
		t.Fatal(err)
	}
	if len(msg.Answers) != 2 {
		t.Errorf("TCP answers = %d", len(msg.Answers))
	}
}

func TestConcurrentClients(t *testing.T) {
	addr, _ := startTestServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &resolver.UDPClient{Timeout: 3 * time.Second}
			msg, _, err := client.Query(context.Background(), addr, "example.nl", dnswire.TypeNS)
			if err != nil {
				errs <- err
				return
			}
			if len(msg.Answers) != 2 {
				errs <- context.DeadlineExceeded
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("concurrent query: %v", err)
	}
}

func TestClientTimeoutAgainstSlowServer(t *testing.T) {
	zone := NewZone()
	zone.AddNS("slow.example", "ns1.slow.example")
	srv := NewServer(zone, nil)
	srv.SetDelay(300 * time.Millisecond)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := &resolver.UDPClient{Timeout: 50 * time.Millisecond}
	if _, _, err := client.Query(context.Background(), addr, "slow.example", dnswire.TypeNS); err == nil {
		t.Error("query against slow server should time out")
	}
	// with a generous timeout the same query succeeds
	client.Timeout = 2 * time.Second
	if _, _, err := client.Query(context.Background(), addr, "slow.example", dnswire.TypeNS); err != nil {
		t.Errorf("generous timeout should succeed: %v", err)
	}
}

func TestRefusedForNonINClass(t *testing.T) {
	zone := NewZone()
	resp := zone.Answer(dnswire.Question{Name: "x.example", Type: dnswire.TypeA, Class: 3})
	if resp.Header.RCode != dnswire.RCodeRefused {
		t.Errorf("rcode = %v", resp.Header.RCode)
	}
}

func TestFromDBServesWholeWorld(t *testing.T) {
	db := dnsdb.New()
	pid := db.AddProvider(dnsdb.Provider{Name: "P"})
	ns1, _ := db.AddNameserver(dnsdb.Nameserver{Host: "ns1.p.example", Addr: netx.MustParseAddr("192.0.2.1"), Provider: pid})
	ns2, _ := db.AddNameserver(dnsdb.Nameserver{Host: "ns2.p.example", Addr: netx.MustParseAddr("192.0.2.2"), Provider: pid})
	db.AddDomain(dnsdb.Domain{Name: "zone-a.example", NS: []dnsdb.NameserverID{ns1, ns2}})
	db.AddDomain(dnsdb.Domain{Name: "zone-b.example", NS: []dnsdb.NameserverID{ns1}})
	db.Freeze()

	zone := FromDB(db)
	srv := NewServer(zone, nil)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := &resolver.UDPClient{Timeout: 2 * time.Second}
	msg, _, err := client.Query(context.Background(), addr, "zone-a.example", dnswire.TypeNS)
	if err != nil {
		t.Fatal(err)
	}
	if len(msg.Answers) != 2 || len(msg.Additional) != 2 {
		t.Errorf("zone-a: %d answers, %d glue", len(msg.Answers), len(msg.Additional))
	}
	msgB, _, err := client.Query(context.Background(), addr, "zone-b.example", dnswire.TypeNS)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgB.Answers) != 1 {
		t.Errorf("zone-b: %d answers", len(msgB.Answers))
	}
}

func TestDoubleStartRejected(t *testing.T) {
	_, srv := startTestServer(t)
	if _, err := srv.Start("127.0.0.1:0"); err == nil {
		t.Error("second Start should fail")
	}
}

func TestServerSurvivesGarbage(t *testing.T) {
	addr, _ := startTestServer(t)
	// blast malformed datagrams at the UDP socket
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		junk := make([]byte, i%37)
		for j := range junk {
			junk[j] = byte(i * j)
		}
		if _, err := conn.Write(junk); err != nil {
			t.Fatal(err)
		}
	}
	conn.Close()
	// a malformed TCP stream (bogus length prefix) must not wedge it
	tc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	tc.Write([]byte{0xff, 0xff, 1, 2, 3})
	tc.Close()
	// the server still answers real queries afterwards
	client := &resolver.UDPClient{Timeout: 2 * time.Second}
	m, _, err := client.Query(context.Background(), addr, "example.nl", dnswire.TypeNS)
	if err != nil {
		t.Fatalf("server wedged after garbage: %v", err)
	}
	if len(m.Answers) != 2 {
		t.Errorf("answers = %d", len(m.Answers))
	}
}

func TestServerIgnoresResponsePackets(t *testing.T) {
	addr, _ := startTestServer(t)
	// a spoofed "response" datagram must not be processed as a query
	// (reflection hygiene)
	resp := &dnswire.Message{Header: dnswire.Header{ID: 9, Response: true},
		Questions: []dnswire.Question{{Name: "example.nl", Type: dnswire.TypeNS, Class: dnswire.ClassIN}}}
	wire, err := dnswire.Encode(resp)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write(wire)
	conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	buf := make([]byte, 512)
	if n, _ := conn.Read(buf); n > 0 {
		t.Error("server answered a response packet")
	}
}

// QueryTCP issues one length-prefixed DNS query over TCP, for tests of the
// TCP path (DNS-over-TCP is the dominant attack protocol in §6.2, and a
// real service on authoritative servers). It is resolver.TCPClient, bounded
// by ctx's deadline; the client checks that the response's ID matches.
func QueryTCP(ctx context.Context, addr, name string, qtype dnswire.Type) (*dnswire.Message, error) {
	m, _, err := (&resolver.TCPClient{}).Query(ctx, addr, name, qtype)
	return m, err
}
