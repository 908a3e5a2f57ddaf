package authserver

import (
	"bytes"
	"context"
	"math/rand/v2"
	"net"
	"net/netip"
	"slices"
	"testing"
	"time"

	"dnsddos/internal/dnswire"
	"dnsddos/internal/faultinject"
	"dnsddos/internal/netx"
)

// degradeZone is a tiny zone for the graceful-degradation tests.
func degradeZone() *Zone {
	z := NewZone()
	z.AddNS("victim.example", "ns1.victim.example")
	z.AddA("ns1.victim.example", netx.MustParseAddr("192.0.2.1"))
	return z
}

// dialFrom opens a UDP socket to addr bound to the given local source
// IP; Linux routes all of 127/8 to loopback, so tests can speak from
// distinct /24s.
func dialFrom(t *testing.T, src, addr string) net.Conn {
	t.Helper()
	d := net.Dialer{LocalAddr: &net.UDPAddr{IP: net.ParseIP(src)}}
	conn, err := d.Dial("udp", addr)
	if err != nil {
		t.Fatalf("dial from %s: %v", src, err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// queryOn sends one query on an open conn and waits for the matching
// response, returning nil on timeout.
func queryOn(t *testing.T, conn net.Conn, id uint16, name string, timeout time.Duration) *dnswire.Message {
	t.Helper()
	q := dnswire.NewQuery(id, name, dnswire.TypeNS)
	wire, err := dnswire.Encode(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(timeout))
	buf := make([]byte, 4096)
	for {
		n, err := conn.Read(buf)
		if err != nil {
			return nil
		}
		m, err := dnswire.Decode(buf[:n])
		if err != nil || !m.Header.Response || m.Header.ID != id {
			continue
		}
		return m
	}
}

func TestReflexResponse(t *testing.T) {
	q := dnswire.NewQuery(0x1234, "victim.example", dnswire.TypeNS)
	q.AttachEDNS(dnswire.EDNS{UDPPayload: 1232})
	wire, err := dnswire.Encode(q)
	if err != nil {
		t.Fatal(err)
	}
	out := reflexResponse(append([]byte(nil), wire...), dnswire.RCodeServFail, false)
	if out == nil {
		t.Fatal("reflexResponse rejected a well-formed query")
	}
	m, err := dnswire.Decode(out)
	if err != nil {
		t.Fatalf("reflex response does not decode: %v", err)
	}
	if !m.Header.Response || m.Header.RCode != dnswire.RCodeServFail || m.Header.Truncated {
		t.Errorf("servfail reflex header = %+v", m.Header)
	}
	if m.Header.ID != 0x1234 || len(m.Questions) != 1 || m.Questions[0].Name != "victim.example" {
		t.Errorf("reflex must echo ID and question: %+v", m)
	}
	if _, ok := m.EDNS(); !ok {
		t.Error("reflex must echo the query's OPT record")
	}

	tcOut := reflexResponse(append([]byte(nil), wire...), dnswire.RCodeNoError, true)
	tm, err := dnswire.Decode(tcOut)
	if err != nil {
		t.Fatalf("tc reflex does not decode: %v", err)
	}
	if !tm.Header.Truncated || tm.Header.RCode != dnswire.RCodeNoError {
		t.Errorf("tc reflex header = %+v", tm.Header)
	}

	if reflexResponse([]byte{1, 2, 3}, dnswire.RCodeServFail, false) != nil {
		t.Error("short datagrams must be rejected")
	}
	resp := append([]byte(nil), out...)
	if reflexResponse(resp, dnswire.RCodeServFail, false) != nil {
		t.Error("datagrams already carrying QR must be rejected (no reflection loops)")
	}
}

// TestOverloadPolicies floods a deliberately tiny serving pipeline and
// checks each policy's degraded answer: silence, SERVFAIL, or TC.
func TestOverloadPolicies(t *testing.T) {
	cases := []struct {
		name   string
		policy OverloadPolicy
	}{
		{"servfail", OverloadServFail},
		{"truncate", OverloadTruncate},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := NewServer(degradeZone(), nil)
			srv.Workers = 1
			srv.Readers = 1
			srv.QueueDepth = 1
			srv.Overload = tc.policy
			srv.SetDelay(20 * time.Millisecond) // wedge the single worker
			addr, err := srv.Start("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()

			conn, err := net.Dial("udp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			// burst 50 queries without reading: the 1-deep queue must shed
			for i := 0; i < 50; i++ {
				q := dnswire.NewQuery(uint16(i+1), "victim.example", dnswire.TypeNS)
				wire, _ := dnswire.Encode(q)
				conn.Write(wire)
			}
			// collect responses until quiet
			var shedSeen int
			buf := make([]byte, 4096)
			for {
				conn.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
				n, err := conn.Read(buf)
				if err != nil {
					break
				}
				m, err := dnswire.Decode(buf[:n])
				if err != nil {
					continue
				}
				switch tc.policy {
				case OverloadServFail:
					if m.Header.RCode == dnswire.RCodeServFail {
						shedSeen++
					}
				case OverloadTruncate:
					if m.Header.Truncated {
						shedSeen++
					}
				}
			}
			st := srv.Metrics().Snapshot().Counters
			if counter(srv, "udp_dropped") == 0 {
				t.Fatalf("flood did not overflow the queue: %v", st)
			}
			if shedSeen == 0 {
				t.Errorf("policy %v sent no degraded answers (counters %v)", tc.policy, st)
			}
			servfail, truncated := counter(srv, "udp_shed_servfail"), counter(srv, "udp_shed_truncated")
			switch tc.policy {
			case OverloadServFail:
				if servfail == 0 || truncated != 0 {
					t.Errorf("shed breakdown = %v, want servfail-only", st)
				}
			case OverloadTruncate:
				if truncated == 0 || servfail != 0 {
					t.Errorf("shed breakdown = %v, want tc-only", st)
				}
			}
		})
	}
}

// TestOverloadDropStaysSilent checks the default policy sheds without
// answering — the client's view is a timeout, the paper's dominant
// failure class (92%, §6.3.1).
func TestOverloadDropStaysSilent(t *testing.T) {
	srv := NewServer(degradeZone(), nil)
	srv.Workers = 1
	srv.Readers = 1
	srv.QueueDepth = 1
	srv.SetDelay(50 * time.Millisecond)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for i := 0; i < 30; i++ {
		q := dnswire.NewQuery(uint16(i+1), "victim.example", dnswire.TypeNS)
		wire, _ := dnswire.Encode(q)
		conn.Write(wire)
	}
	answered := 0
	buf := make([]byte, 4096)
	for {
		conn.SetReadDeadline(time.Now().Add(500 * time.Millisecond))
		if _, err := conn.Read(buf); err != nil {
			break
		}
		answered++
	}
	st := srv.Metrics().Snapshot().Counters
	if counter(srv, "udp_dropped") == 0 {
		t.Fatalf("flood did not overflow the queue: %v", st)
	}
	if counter(srv, "udp_shed_servfail") != 0 || counter(srv, "udp_shed_truncated") != 0 {
		t.Errorf("drop policy must not send shed answers: %v", st)
	}
	if n := counter(srv, "udp_answered"); int64(answered) != n {
		t.Errorf("client saw %d answers, server counted %d", answered, n)
	}
}

// TestRRLIsolatesFloodingPrefix floods from one /24 while a well-behaved
// client in another /24 keeps querying: RRL must shed the flooder
// without touching the legitimate client (the acceptance criterion).
func TestRRLIsolatesFloodingPrefix(t *testing.T) {
	srv := NewServer(degradeZone(), nil)
	srv.RRL = &RRLConfig{ResponsesPerSecond: 10, Burst: 5, Slip: 2}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// flooder: 127.0.0.2 (/24 = 127.0.0.0) — fire a burst without
	// waiting, then drain whatever came back
	flood := dialFrom(t, "127.0.0.2", addr)
	for i := 0; i < 120; i++ {
		q := dnswire.NewQuery(uint16(i+1), "victim.example", dnswire.TypeNS)
		wire, _ := dnswire.Encode(q)
		flood.Write(wire)
	}
	floodAnswered, floodSlipped := 0, 0
	buf := make([]byte, 4096)
	for {
		flood.SetReadDeadline(time.Now().Add(400 * time.Millisecond))
		n, err := flood.Read(buf)
		if err != nil {
			break
		}
		m, err := dnswire.Decode(buf[:n])
		if err != nil || !m.Header.Response {
			continue
		}
		if m.Header.Truncated {
			floodSlipped++
		} else {
			floodAnswered++
		}
	}

	// well-behaved client: 127.0.1.2 (/24 = 127.0.1.0), within budget
	legit := dialFrom(t, "127.0.1.2", addr)
	legitAnswered := 0
	for i := 0; i < 5; i++ {
		id := uint16(1000 + i)
		if m := queryOn(t, legit, id, "victim.example", time.Second); m != nil && !m.Header.Truncated {
			if m.Header.RCode == dnswire.RCodeNoError && len(m.Answers) > 0 {
				legitAnswered++
			}
		}
	}

	st := srv.Metrics().Snapshot().Counters
	dropped, slipped := counter(srv, "rrl_dropped"), counter(srv, "rrl_slipped")
	if legitAnswered != 5 {
		t.Errorf("well-behaved /24 got %d/5 full answers; RRL must not touch it (counters %v)",
			legitAnswered, st)
	}
	if floodAnswered > 40 {
		t.Errorf("flooding /24 got %d/120 full answers; RRL should shed most (counters %v)",
			floodAnswered, st)
	}
	if dropped == 0 {
		t.Errorf("RRL dropped nothing under flood: %v", st)
	}
	if slipped == 0 || floodSlipped == 0 {
		t.Errorf("slip=2 must leak truncated answers: slipped=%d counters=%v", floodSlipped, st)
	}
	// SLIP invariant: roughly every 2nd limited response slips
	if slipped > dropped+2 {
		t.Errorf("slip=%d vs drop=%d: slip=2 should alternate", slipped, dropped)
	}
}

// TestRRLSlipInvitesTCPRetry checks the SLIP escape hatch end to end: a
// rate-limited client that receives the truncated slip can still get the
// full answer over TCP, which RRL does not limit (TCP cannot be spoofed).
func TestRRLSlipInvitesTCPRetry(t *testing.T) {
	srv := NewServer(degradeZone(), nil)
	srv.RRL = &RRLConfig{ResponsesPerSecond: 1, Burst: 1, Slip: 1}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// exhaust the burst, then the next UDP answer must be a slip (TC)
	queryOn(t, conn, 1, "victim.example", time.Second)
	m := queryOn(t, conn, 2, "victim.example", time.Second)
	if m == nil {
		t.Fatal("slip=1 must answer every limited query with TC")
	}
	if !m.Header.Truncated {
		t.Fatalf("expected truncated slip, got %+v", m.Header)
	}
	// the TC answer tells the client to retry over TCP — which works
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	full, err := QueryTCP(ctx, addr, "victim.example", dnswire.TypeNS)
	if err != nil {
		t.Fatalf("tcp retry after slip: %v", err)
	}
	if len(full.Answers) == 0 {
		t.Error("tcp retry must return the full answer")
	}
}

// TestRRLOutOfOrderNowNeverDrains: a worker reads the clock before it
// takes the limiter's lock, so a sibling may charge the same prefix with
// a later now first. The older now is charged its one token and drains
// nothing more: a full bucket of ten answers ten queries whatever the
// order of their stamps, and only the eleventh is limited.
func TestRRLOutOfOrderNowNeverDrains(t *testing.T) {
	l := newRRLLimiter(RRLConfig{ResponsesPerSecond: 10})
	peer := netip.MustParseAddrPort("192.0.2.7:5353")
	t1 := time.Unix(1000, 0)
	stamps := []time.Time{t1, t1.Add(-500 * time.Millisecond), t1.Add(-time.Second)}
	for len(stamps) < 11 {
		stamps = append(stamps, t1)
	}
	for i, now := range stamps {
		want := rrlSend
		if i == 10 {
			want = rrlDrop
		}
		if got := l.account(peer, now); got != want {
			t.Fatalf("query %d stamped %v: verdict %d, want %d", i, now.Sub(t1), got, want)
		}
	}
}

// TestRRLBucket drives one prefix's bucket on synthetic stamps: it
// admits the burst at once, refills at the rate, refills an idle spell
// only up to the burst, keeps the burst apart from the rate, floors the
// burst at one token, and gives the same verdicts to the same stamps.
func TestRRLBucket(t *testing.T) {
	peer := netip.MustParseAddrPort("192.0.2.7:5353")
	t0 := time.Unix(1000, 0)
	type step struct {
		at            time.Duration // after t0
		queries, sent int
	}
	for _, c := range []struct {
		name        string
		rate, burst float64
		steps       []step
	}{
		// four a second, a burst of four: the fifth at once is dropped,
		// one token is back a quarter second later, and an hour idle
		// refills four, not 14,400
		{"rate", 4, 4, []step{{0, 5, 4}, {250 * time.Millisecond, 2, 1}, {time.Hour, 5, 4}}},
		// two a second with a burst of five: the depth and the refill
		// are two numbers
		{"burst", 2, 5, []step{{0, 8, 5}, {time.Second, 8, 2}, {time.Hour, 8, 5}}},
		// half a token a second still holds one whole token
		{"floor", 0.5, 0, []step{{0, 2, 1}, {time.Second, 1, 0}, {2 * time.Second, 2, 1}}},
	} {
		l := newRRLLimiter(RRLConfig{ResponsesPerSecond: c.rate, Burst: c.burst})
		for _, st := range c.steps {
			sent := 0
			for i := 0; i < st.queries; i++ {
				if l.account(peer, t0.Add(st.at)) == rrlSend {
					sent++
				}
			}
			if sent != st.sent {
				t.Errorf("%s: %d queries at +%v sent %d, want %d", c.name, st.queries, st.at, sent, st.sent)
			}
		}
	}

	stamps := make([]time.Time, 200)
	rng := rand.New(rand.NewPCG(7, 7))
	ts := time.Unix(5000, 0)
	for i := range stamps {
		ts = ts.Add(time.Duration(rng.Int64N(int64(400 * time.Millisecond))))
		stamps[i] = ts
	}
	verdicts := func() []rrlAction {
		l := newRRLLimiter(RRLConfig{ResponsesPerSecond: 5, Slip: 3})
		out := make([]rrlAction, len(stamps))
		for i, now := range stamps {
			out[i] = l.account(peer, now)
		}
		return out
	}
	if a, b := verdicts(), verdicts(); !slices.Equal(a, b) {
		t.Fatalf("the same stamps gave other verdicts:\n%v\n%v", a, b)
	}
}

// TestRRLSubUnitRateAnswers: half a response a second still answers a
// quiet source's first query in full — the bucket holds one token
// however low the rate — and limits the second.
func TestRRLSubUnitRateAnswers(t *testing.T) {
	srv := NewServer(degradeZone(), nil)
	srv.RRL = &RRLConfig{ResponsesPerSecond: 0.5}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	m := queryOn(t, conn, 1, "victim.example", time.Second)
	if m == nil || m.Header.Truncated || len(m.Answers) == 0 {
		t.Fatalf("first query at 0.5 responses/s got %+v, want a full answer (counters %v)", m, srv.Metrics().Snapshot().Counters)
	}
	if m := queryOn(t, conn, 2, "victim.example", 200*time.Millisecond); m != nil {
		t.Errorf("second query within the same second answered: %+v", m.Header)
	}
	if n := counter(srv, "rrl_dropped"); n != 1 {
		t.Errorf("RRL dropped %d queries, want 1", n)
	}
}

// TestWrappedListenerUnderFaultSchedule serves through a fault-injected
// listener and drives the scripted attack window: healthy before,
// dropping during, healthy after.
func TestWrappedListenerUnderFaultSchedule(t *testing.T) {
	inj := faultinject.New(7)
	srv := NewServer(degradeZone(), nil)
	srv.WrapUDP = func(pc UDPConn) UDPConn {
		return faultinject.WrapPacketConn(pc, inj)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	if m := queryOn(t, conn, 1, "victim.example", time.Second); m == nil {
		t.Fatal("healthy phase: query must resolve")
	}
	inj.SetProfile(faultinject.Profile{Drop: 1})
	if m := queryOn(t, conn, 2, "victim.example", 200*time.Millisecond); m != nil {
		t.Fatal("attack phase: 100% drop must starve the client")
	}
	inj.SetProfile(faultinject.Profile{})
	if m := queryOn(t, conn, 3, "victim.example", time.Second); m == nil {
		t.Fatal("recovery phase: query must resolve again")
	}
}

// TestReflexKeepsRawQueryBytes guards the no-decode property: a reflex
// answer is byte-identical to the query outside the flag/count fields.
func TestReflexKeepsRawQueryBytes(t *testing.T) {
	q := dnswire.NewQuery(42, "victim.example", dnswire.TypeNS)
	wire, _ := dnswire.Encode(q)
	out := reflexResponse(append([]byte(nil), wire...), dnswire.RCodeServFail, false)
	if !bytes.Equal(out[12:], wire[12:]) {
		t.Error("reflex must leave the question section untouched")
	}
	if out[0] != wire[0] || out[1] != wire[1] {
		t.Error("reflex must preserve the query ID")
	}
}

// TestRRLSourcePrefix: a peer's bucket is its /24 for IPv4, whether the
// socket reports it as IPv4 or as IPv4-mapped IPv6, and its /56 for
// IPv6; the port never matters.
func TestRRLSourcePrefix(t *testing.T) {
	for _, c := range []struct{ peer, want string }{
		{"192.0.2.7:5353", "192.0.2.0/24"},
		{"192.0.2.250:1", "192.0.2.0/24"},
		{"[::ffff:192.0.2.7]:53", "192.0.2.0/24"},
		{"192.0.3.7:5353", "192.0.3.0/24"},
		{"[2001:db8:0:12ff::1]:53", "2001:db8:0:1200::/56"},
		{"[2001:db8:0:1200:ffff::9]:4000", "2001:db8:0:1200::/56"},
		{"[2001:db8:0:1300::1]:53", "2001:db8:0:1300::/56"},
	} {
		if got := sourcePrefix(netip.MustParseAddrPort(c.peer)); got != netip.MustParsePrefix(c.want) {
			t.Errorf("sourcePrefix(%s) = %s, want %s", c.peer, got, c.want)
		}
	}
}
