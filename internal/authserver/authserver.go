// Package authserver is a real authoritative DNS server speaking the wire
// format of internal/dnswire over UDP and TCP sockets. It serves the NS and
// A records of a dnsdb world, giving the reproduction a genuine network
// data path for cmd/serve, the degraded-mode sweep (internal/e2ebench) and
// integration tests: the same explicit NS queries OpenINTEL sends (§3.2)
// travel over actual sockets.
//
// The serving path is a concurrent engine: several reader goroutines share
// the UDP socket (each with a private read buffer) and hand decoded work to
// a bounded worker pool, so a slow answer — the Delay knob, or a large
// NSSet encode — never stalls the read loop. TCP connections get one
// goroutine each under a connection cap, and Close drains in-flight
// exchanges gracefully. Overload sheds queries (counted in Stats) instead
// of wedging the socket: under flood the server degrades the way the
// paper's targets degrade, by dropping, not by freezing.
package authserver

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dnsddos/internal/dnsdb"
	"dnsddos/internal/dnswire"
	"dnsddos/internal/netx"
	"dnsddos/internal/obs"
)

// Zone is the record store the server answers from.
type Zone struct {
	// ns maps canonical domain name → NS host names.
	ns map[string][]string
	// a maps canonical host name → IPv4 addresses.
	a map[string][]netx.Addr
	// soaMName/soaRName name the zone authority for negative answers.
	soaMName string
	soaRName string
	ttl      uint32
}

// NewZone builds an empty zone.
func NewZone() *Zone {
	return &Zone{
		ns:       make(map[string][]string),
		a:        make(map[string][]netx.Addr),
		soaMName: "ns.invalid",
		soaRName: "hostmaster.invalid",
		ttl:      300,
	}
}

// AddNS registers an NS record.
func (z *Zone) AddNS(domain, nsHost string) {
	d := dnswire.CanonicalName(domain)
	z.ns[d] = append(z.ns[d], dnswire.CanonicalName(nsHost))
}

// AddA registers an A record.
func (z *Zone) AddA(host string, addr netx.Addr) {
	h := dnswire.CanonicalName(host)
	z.a[h] = append(z.a[h], addr)
}

// FromDB loads every domain's NS records (and nameserver glue A records)
// from a world database. It builds the zone AddA and AddNS would, record
// by record, in one step per name: the maps are sized from the database,
// each nameserver host is canonicalized once, and the address and host
// lists are cut from one array each, so a name's list is written with
// one map write. The lists' capacities are clamped to their lengths: a
// name seen twice (two spellings of one domain, one host on two
// addresses) appends into a copy, never over its neighbour.
func FromDB(db *dnsdb.DB) *Zone {
	z := NewZone()
	z.a = make(map[string][]netx.Addr, len(db.Nameservers))
	z.ns = make(map[string][]string, len(db.Domains))
	hosts := make([]string, len(db.Nameservers))
	addrs := make([]netx.Addr, len(db.Nameservers))
	for i := range db.Nameservers {
		ns := &db.Nameservers[i]
		hosts[i], addrs[i] = dnswire.CanonicalName(ns.Host), ns.Addr
		list := addrs[i : i+1 : i+1]
		if prev := z.a[hosts[i]]; prev != nil {
			list = append(prev, list...)
		}
		z.a[hosts[i]] = list
	}
	total := 0
	for i := range db.Domains {
		total += len(db.Domains[i].NS)
	}
	nsHosts := make([]string, 0, total)
	for i := range db.Domains {
		d := &db.Domains[i]
		if len(d.NS) == 0 {
			continue
		}
		start := len(nsHosts)
		for _, id := range d.NS {
			nsHosts = append(nsHosts, hosts[id])
		}
		name := dnswire.CanonicalName(d.Name)
		list := nsHosts[start:len(nsHosts):len(nsHosts)]
		if prev := z.ns[name]; prev != nil {
			list = append(prev, list...)
		}
		z.ns[name] = list
	}
	return z
}

// apexOf returns the closest enclosing name that has a delegation (NS
// records) — the zone apex a negative answer's SOA record belongs to.
// Unknown names fall back to the queried name itself, which still yields a
// well-formed authority section.
func (z *Zone) apexOf(name string) string {
	for n := name; n != ""; {
		if _, ok := z.ns[n]; ok {
			return n
		}
		i := strings.IndexByte(n, '.')
		if i < 0 {
			break
		}
		n = n[i+1:]
	}
	return name
}

// Answer builds the response message for one question. The message is
// fresh and the caller's to keep; its sections are sized for the records
// they get when each NS host has one glue address, as in FromDB's zones.
// The server itself answers into a worker's scratch (answerInto).
func (z *Zone) Answer(q dnswire.Question) *dnswire.Message {
	resp := new(dnswire.Message)
	z.answerInto(resp, q)
	return resp
}

// answerInto builds the response in resp, over whatever resp held, in
// the room its sections already have.
func (z *Zone) answerInto(resp *dnswire.Message, q dnswire.Question) {
	resp.Header = dnswire.Header{Response: true, Authoritative: true}
	resp.Questions = append(resp.Questions[:0], q)
	resp.Answers, resp.Authority, resp.Additional = resp.Answers[:0], resp.Authority[:0], resp.Additional[:0]
	name := dnswire.CanonicalName(q.Name)
	if q.Class != dnswire.ClassIN {
		resp.Header.RCode = dnswire.RCodeRefused
		return
	}
	// each map is read once per name: the A records only when the query
	// asks for them or the name has no delegation
	hosts, known := z.ns[name]
	var addrs []netx.Addr
	if q.Type == dnswire.TypeA || !known {
		var isA bool
		addrs, isA = z.a[name]
		known = known || isA
	}
	switch q.Type {
	case dnswire.TypeNS:
		resp.Answers = slices.Grow(resp.Answers, len(hosts))
		// one glue record per host, as FromDB builds zones; a host with
		// more grows the section as its records are appended
		resp.Additional = slices.Grow(resp.Additional, len(hosts))
		for _, h := range hosts {
			resp.Answers = append(resp.Answers, dnswire.RR{
				Name: name, Type: dnswire.TypeNS, Class: dnswire.ClassIN, TTL: z.ttl, NS: h,
			})
			for _, addr := range z.a[h] {
				resp.Additional = append(resp.Additional, dnswire.RR{
					Name: h, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: z.ttl, A: addr,
				})
			}
		}
	case dnswire.TypeA:
		resp.Answers = slices.Grow(resp.Answers, len(addrs))
		for _, addr := range addrs {
			resp.Answers = append(resp.Answers, dnswire.RR{
				Name: name, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: z.ttl, A: addr,
			})
		}
	}
	if len(resp.Answers) == 0 {
		if !known {
			resp.Header.RCode = dnswire.RCodeNXDomain
		}
		resp.Authority = append(resp.Authority, dnswire.RR{
			Name: z.apexOf(name), Type: dnswire.TypeSOA, Class: dnswire.ClassIN, TTL: z.ttl,
			SOA: &dnswire.SOAData{MName: z.soaMName, RName: z.soaRName, Serial: 1, Refresh: 3600, Retry: 600, Expire: 86400, Minimum: z.ttl},
		})
	}
}

// maxTCPMessage is the largest DNS message a 16-bit TCP length prefix can
// frame (RFC 1035 §4.2.2).
const maxTCPMessage = 0xffff

// OverloadPolicy selects what a query shed at the full worker queue gets
// back — the degradation mode of an overloaded authoritative. The
// paper's failing events split 92% timeout / 8% SERVFAIL (§6.3.1):
// silent drops produce the timeouts, answering servers the SERVFAILs.
type OverloadPolicy int

// Overload policies.
const (
	// OverloadDrop sheds silently; the client sees a timeout.
	OverloadDrop OverloadPolicy = iota
	// OverloadServFail answers shed queries with a minimal SERVFAIL
	// built by bit-twiddling the query in the reader (no decode).
	OverloadServFail
	// OverloadTruncate answers shed queries with a minimal truncated
	// response, pushing clients to retry over TCP.
	OverloadTruncate
)

// String renders the policy (the cmd/serve flag values).
func (p OverloadPolicy) String() string {
	switch p {
	case OverloadDrop:
		return "drop"
	case OverloadServFail:
		return "servfail"
	case OverloadTruncate:
		return "tc"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParseOverloadPolicy maps a flag value ("drop", "servfail", "tc") back
// to its policy.
func ParseOverloadPolicy(s string) (OverloadPolicy, error) {
	switch s {
	case "drop":
		return OverloadDrop, nil
	case "servfail":
		return OverloadServFail, nil
	case "tc":
		return OverloadTruncate, nil
	}
	return OverloadDrop, fmt.Errorf("unknown overload policy %q (want drop, servfail, or tc)", s)
}

// serverMetrics is the server's registry-backed instrumentation: the
// traffic counters behind the public Stats snapshot plus the per-query
// latency histograms, all living in one obs.Registry so cmd/serve can
// export them over HTTP while the server runs.
type serverMetrics struct {
	udpReceived   *obs.Counter
	udpAnswered   *obs.Counter
	udpDropped    *obs.Counter
	shedServFail  *obs.Counter
	shedTruncated *obs.Counter
	rrlDropped    *obs.Counter
	rrlSlipped    *obs.Counter
	udpMalformed  *obs.Counter
	tcpAccepted   *obs.Counter
	tcpRejected   *obs.Counter
	tcpQueries    *obs.Counter
	// udpLatency spans read-off-the-socket to response written (queue
	// wait + decode + answer + encode + artificial delay); tcpLatency
	// spans one framed exchange.
	udpLatency *obs.Histogram
	tcpLatency *obs.Histogram
}

func newServerMetrics(reg *obs.Registry) serverMetrics {
	return serverMetrics{
		udpReceived:   reg.Counter("authserver.udp_received"),
		udpAnswered:   reg.Counter("authserver.udp_answered"),
		udpDropped:    reg.Counter("authserver.udp_dropped"),
		shedServFail:  reg.Counter("authserver.udp_shed_servfail"),
		shedTruncated: reg.Counter("authserver.udp_shed_truncated"),
		rrlDropped:    reg.Counter("authserver.rrl_dropped"),
		rrlSlipped:    reg.Counter("authserver.rrl_slipped"),
		udpMalformed:  reg.Counter("authserver.udp_malformed"),
		tcpAccepted:   reg.Counter("authserver.tcp_accepted"),
		tcpRejected:   reg.Counter("authserver.tcp_rejected"),
		tcpQueries:    reg.Counter("authserver.tcp_queries"),
		udpLatency:    reg.Histogram("authserver.udp_latency"),
		tcpLatency:    reg.Histogram("authserver.tcp_latency"),
	}
}

// Stats is a snapshot of the server's traffic counters.
type Stats struct {
	// UDPReceived counts datagrams read off the UDP socket.
	UDPReceived int64
	// UDPAnswered counts UDP responses written on the normal path
	// (excluding shed-policy and RRL-slip reflexes).
	UDPAnswered int64
	// UDPDropped counts queries shed because the worker queue was full —
	// the overload signal — whatever the Overload policy answered.
	UDPDropped int64
	// UDPShedServFail and UDPShedTruncated break the sheds down by what
	// the Overload policy sent back; sheds under OverloadDrop send
	// nothing and appear only in UDPDropped.
	UDPShedServFail  int64
	UDPShedTruncated int64
	// RRLDropped counts responses suppressed by response rate limiting;
	// RRLSlipped counts limited responses sent as minimal truncated
	// answers instead (the SLIP escape hatch).
	RRLDropped int64
	RRLSlipped int64
	// UDPMalformed counts datagrams that failed to decode or were not
	// single-question queries.
	UDPMalformed int64
	// TCPAccepted and TCPRejected count connections admitted and refused
	// at the MaxConns cap. TCPQueries counts exchanges served.
	TCPAccepted int64
	TCPRejected int64
	TCPQueries  int64
}

// Server serves a Zone over UDP and TCP.
type Server struct {
	zone *Zone
	log  *slog.Logger

	// Workers sizes the UDP worker pool running decode→answer→encode;
	// zero means 2×GOMAXPROCS (at least 8). Set before Start.
	Workers int
	// Readers is the number of goroutines sharing the UDP socket, each
	// with a private read buffer; zero means 2. Set before Start.
	Readers int
	// QueueDepth bounds the pending-query queue between readers and
	// workers; a full queue sheds new queries (see Stats.UDPDropped).
	// Zero means 1024. Set before Start.
	QueueDepth int
	// MaxConns caps concurrent TCP connections; excess connections are
	// closed on accept. Zero means 256. Set before Start.
	MaxConns int
	// Overload selects what shed queries get back when the worker queue
	// is full: silence (drop), SERVFAIL, or TC. Set before Start.
	Overload OverloadPolicy
	// RRL, when non-nil, enables per-source-prefix response rate
	// limiting with SLIP (see RRLConfig). Set before Start.
	RRL *RRLConfig
	// WrapUDP, when set, wraps the bound UDP listener before serving —
	// the listener-side fault-injection hook (e.g. a closure over
	// faultinject.WrapPacketConn). Set before Start; the injector
	// behind the wrapper may be reshaped while the server runs.
	WrapUDP func(net.PacketConn) net.PacketConn

	// delay (nanoseconds) artificially delays every answer; tests use it
	// to exercise resolver timeout handling over real sockets. Atomic, so
	// it can be flipped while the server runs.
	delay atomic.Int64

	mu      sync.Mutex
	pc      net.PacketConn // the (possibly fault-wrapped) serving socket
	tcp     net.Listener
	conns   map[net.Conn]struct{}
	wg      sync.WaitGroup
	started bool
	closing atomic.Bool
	rrl     *rrlLimiter

	reg *obs.Registry
	m   serverMetrics
}

// NewServer builds a server for the zone. logger may be nil. The server
// owns a private obs.Registry (see Metrics) backing both the Stats
// snapshot and the latency histograms.
func NewServer(zone *Zone, logger *slog.Logger) *Server {
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	reg := obs.New()
	return &Server{
		zone:  zone,
		log:   logger,
		conns: make(map[net.Conn]struct{}),
		reg:   reg,
		m:     newServerMetrics(reg),
	}
}

// Metrics returns the server's metric registry — the authserver.*
// counters behind Stats plus the udp/tcp latency histograms — for
// export over HTTP (obs.Serve) or embedding in a larger registry.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// SetDelay sets the artificial per-answer delay. Safe to call while the
// server is running; in-flight answers use the value read at dispatch.
func (s *Server) SetDelay(d time.Duration) { s.delay.Store(int64(d)) }

// Delay returns the current artificial per-answer delay.
func (s *Server) Delay() time.Duration { return time.Duration(s.delay.Load()) }

// Stats returns a snapshot of the traffic counters. The values are read
// from the same registry-backed counters /metrics.json exports, so the
// two views always agree.
func (s *Server) Stats() Stats {
	return Stats{
		UDPReceived:      s.m.udpReceived.Load(),
		UDPAnswered:      s.m.udpAnswered.Load(),
		UDPDropped:       s.m.udpDropped.Load(),
		UDPShedServFail:  s.m.shedServFail.Load(),
		UDPShedTruncated: s.m.shedTruncated.Load(),
		RRLDropped:       s.m.rrlDropped.Load(),
		RRLSlipped:       s.m.rrlSlipped.Load(),
		UDPMalformed:     s.m.udpMalformed.Load(),
		TCPAccepted:      s.m.tcpAccepted.Load(),
		TCPRejected:      s.m.tcpRejected.Load(),
		TCPQueries:       s.m.tcpQueries.Load(),
	}
}

// udpJob is one datagram handed from a reader to the worker pool. start
// is the read timestamp, anchoring the per-query latency observation.
type udpJob struct {
	wire  *[]byte
	peer  net.Addr
	start time.Time
}

// bufPool recycles per-datagram copies between readers and workers.
var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 2048)
	return &b
}}

// Start binds UDP and TCP on addr ("127.0.0.1:0" for tests) and serves
// until Close. It returns the bound UDP address.
func (s *Server) Start(addr string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return "", errors.New("authserver: already started")
	}
	workers := s.Workers
	if workers <= 0 {
		workers = 2 * runtime.GOMAXPROCS(0)
		if workers < 8 {
			workers = 8
		}
	}
	readers := s.Readers
	if readers <= 0 {
		readers = 2
	}
	depth := s.QueueDepth
	if depth <= 0 {
		depth = 1024
	}
	maxConns := s.MaxConns
	if maxConns <= 0 {
		maxConns = 256
	}

	uaddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return "", err
	}
	uc, tl, err := bindPair(uaddr)
	if err != nil {
		return "", err
	}
	pc := net.PacketConn(uc)
	if s.WrapUDP != nil {
		pc = s.WrapUDP(pc)
	}
	if s.RRL != nil && s.RRL.ResponsesPerSecond > 0 {
		s.rrl = newRRLLimiter(*s.RRL)
	}
	s.pc, s.tcp, s.started = pc, tl, true

	jobs := make(chan udpJob, depth)
	var readerWG sync.WaitGroup
	for i := 0; i < readers; i++ {
		s.wg.Add(1)
		readerWG.Add(1)
		go s.readUDP(pc, jobs, &readerWG)
	}
	// once every reader has exited (socket closed), release the workers
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		readerWG.Wait()
		close(jobs)
	}()
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.udpWorker(pc, jobs)
	}
	s.wg.Add(1)
	go s.serveTCP(tl, maxConns)
	return uc.LocalAddr().String(), nil
}

// bindPair binds UDP and TCP on the same port, DNS-style. With an
// ephemeral request (port 0) the UDP draw can land on a port whose TCP
// side another process already holds, so the draw is retried on a
// fresh port instead of failing the caller; a pinned port fails
// immediately — the conflict is real there.
func bindPair(uaddr *net.UDPAddr) (*net.UDPConn, net.Listener, error) {
	const redraws = 16
	for attempt := 0; ; attempt++ {
		uc, err := net.ListenUDP("udp", uaddr)
		if err != nil {
			return nil, nil, err
		}
		tl, err := net.Listen("tcp", uc.LocalAddr().String())
		if err == nil {
			return uc, tl, nil
		}
		uc.Close()
		if uaddr.Port != 0 || attempt >= redraws {
			return nil, nil, err
		}
	}
}

// readUDP pulls datagrams off the shared socket into the worker queue. It
// does no parsing and never sleeps: when the queue is full the query is
// shed, so handler latency cannot stall the socket. What a shed query
// gets back is the Overload policy's call — nothing, or a reflex
// SERVFAIL/TC built without decoding.
func (s *Server) readUDP(conn net.PacketConn, jobs chan<- udpJob, readerWG *sync.WaitGroup) {
	defer s.wg.Done()
	defer readerWG.Done()
	buf := make([]byte, 65536) // private read buffer; max UDP payload
	for {
		n, peer, err := conn.ReadFrom(buf)
		if err != nil {
			return // closed
		}
		s.m.udpReceived.Inc()
		wire := bufPool.Get().(*[]byte)
		*wire = append((*wire)[:0], buf[:n]...)
		select {
		case jobs <- udpJob{wire: wire, peer: peer, start: time.Now()}:
		default:
			s.m.udpDropped.Inc()
			s.shedReflex(conn, *wire, peer)
			bufPool.Put(wire)
		}
	}
}

// shedReflex answers one shed query per the Overload policy. It mutates
// the query bytes in place (the caller owns the copy) — no decode, no
// allocation — so the degraded path stays cheap under exactly the load
// that triggers it.
func (s *Server) shedReflex(conn net.PacketConn, wire []byte, peer net.Addr) {
	switch s.Overload {
	case OverloadServFail:
		if out := reflexResponse(wire, dnswire.RCodeServFail, false); out != nil {
			conn.WriteTo(out, peer)
			s.m.shedServFail.Inc()
		}
	case OverloadTruncate:
		if out := reflexResponse(wire, dnswire.RCodeNoError, true); out != nil {
			conn.WriteTo(out, peer)
			s.m.shedTruncated.Inc()
		}
	}
}

// reflexResponse turns a raw query datagram into a minimal response in
// place: QR set, the given rcode, optionally TC, answer/authority counts
// zeroed. The question section (and any EDNS OPT record) is echoed
// as-is. Returns nil for datagrams that are not plausible queries.
func reflexResponse(wire []byte, rcode dnswire.RCode, tc bool) []byte {
	if len(wire) < 12 || wire[2]&0x80 != 0 {
		return nil // too short, or already a response
	}
	wire[2] |= 0x80  // QR
	wire[2] &^= 0x06 // clear AA and TC
	if tc {
		wire[2] |= 0x02
	}
	wire[3] = byte(rcode) & 0x0f // clears RA/Z, sets rcode
	wire[6], wire[7] = 0, 0      // ANCOUNT
	wire[8], wire[9] = 0, 0      // NSCOUNT
	return wire
}

// udpWorker runs decode→answer→encode for queued datagrams and writes the
// responses, applying response rate limiting first. WriteTo is safe for
// concurrent use.
func (s *Server) udpWorker(conn net.PacketConn, jobs <-chan udpJob) {
	defer s.wg.Done()
	var sc scratch
	for job := range jobs {
		if s.closing.Load() {
			bufPool.Put(job.wire)
			continue // drain fast on Close; queued queries are shed
		}
		peer := job.peer
		if s.rrl != nil {
			// RRL accounts responses per source prefix before the
			// answer is built: a limited query costs no encode work.
			switch s.rrl.account(peer, time.Now()) {
			case rrlDrop:
				s.m.rrlDropped.Inc()
				bufPool.Put(job.wire)
				continue
			case rrlSlip:
				if out := reflexResponse(*job.wire, dnswire.RCodeNoError, true); out != nil {
					conn.WriteTo(out, peer)
				}
				s.m.rrlSlipped.Inc()
				bufPool.Put(job.wire)
				continue
			}
		}
		resp, err := s.handleUDP(&sc, *job.wire)
		bufPool.Put(job.wire)
		if err != nil {
			s.m.udpMalformed.Inc()
			s.log.Debug("authserver: bad query", "peer", peer, "err", err)
			continue
		}
		if d := s.Delay(); d > 0 {
			time.Sleep(d)
		}
		if _, err := conn.WriteTo(resp, peer); err != nil {
			s.log.Debug("authserver: udp write", "peer", peer, "err", err)
			continue
		}
		s.m.udpAnswered.Inc()
		s.m.udpLatency.Observe(time.Since(job.start))
	}
}

// scratch is what one UDP worker, or one TCP connection, reuses from
// query to query: the decoded query, the response built for it and the
// response's bytes. All three are dead once the response is written (a
// fault-injecting socket copies what it holds back), so the next query
// overwrites them.
type scratch struct {
	q, resp dnswire.Message
	out     []byte
}

// encode puts m's bytes in sc.out, behind reserve bytes left for a TCP
// length.
func (sc *scratch) encode(m *dnswire.Message, reserve int) (err error) {
	sc.out, err = dnswire.AppendEncode(append(sc.out[:0], make([]byte, reserve)...), m)
	return err
}

// respond decodes one query into sc.q, validates it, answers it into
// sc.resp and encodes that into sc.out. The wire is decoded exactly once
// and the parsed message threaded through answering and truncation.
func (s *Server) respond(sc *scratch, wire []byte, reserve int) error {
	q := &sc.q
	if err := dnswire.DecodeInto(q, wire); err != nil {
		return err
	}
	if q.Header.Response || len(q.Questions) != 1 {
		return errors.New("authserver: not a single-question query")
	}
	s.zone.answerInto(&sc.resp, q.Questions[0])
	sc.resp.Header.ID = q.Header.ID
	sc.resp.Header.RecursionDesired = q.Header.RecursionDesired
	return sc.encode(&sc.resp, reserve)
}

// handleUDP answers one UDP query, truncating responses that exceed the
// client's UDP payload budget: the classic 512 bytes, or the size an EDNS
// OPT record advertises (RFC 6891). The bytes returned are sc's.
func (s *Server) handleUDP(sc *scratch, wire []byte) ([]byte, error) {
	if err := s.respond(sc, wire, 0); err != nil {
		return nil, err
	}
	q := &sc.q
	if len(sc.out) <= q.MaxUDPPayload() {
		return sc.out, nil
	}
	// re-encode header-and-question only, with TC set
	trunc := &dnswire.Message{
		Header: dnswire.Header{
			ID:               q.Header.ID,
			Response:         true,
			Authoritative:    true,
			Truncated:        true,
			RecursionDesired: q.Header.RecursionDesired,
		},
		Questions: q.Questions,
	}
	if e, ok := q.EDNS(); ok {
		trunc.AttachEDNS(dnswire.EDNS{UDPPayload: e.UDPPayload})
	}
	err := sc.encode(trunc, 0)
	return sc.out, err
}

// serveTCP accepts connections under the maxConns cap; excess connections
// are closed immediately rather than queued, so a connection flood cannot
// exhaust goroutines.
func (s *Server) serveTCP(l net.Listener, maxConns int) {
	defer s.wg.Done()
	sem := make(chan struct{}, maxConns)
	for {
		c, err := l.Accept()
		if err != nil {
			return // closed
		}
		select {
		case sem <- struct{}{}:
		default:
			s.m.tcpRejected.Inc()
			c.Close()
			continue
		}
		s.m.tcpAccepted.Inc()
		s.mu.Lock()
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, c)
				s.mu.Unlock()
				c.Close()
				<-sem
			}()
			s.serveTCPConn(c)
		}()
	}
}

// serveTCPConn handles length-prefixed DNS over one TCP connection
// (RFC 1035 §4.2.2). Close drains it gracefully: an in-flight exchange
// finishes its write, then the poked read deadline ends the loop.
func (s *Server) serveTCPConn(c net.Conn) {
	var sc scratch
	var msg []byte // the connection's read buffer
	for {
		if err := c.SetReadDeadline(time.Now().Add(10 * time.Second)); err != nil {
			return
		}
		var lenb [2]byte
		if _, err := io.ReadFull(c, lenb[:]); err != nil {
			return
		}
		msgLen := int(binary.BigEndian.Uint16(lenb[:]))
		msg = slices.Grow(msg[:0], msgLen)[:msgLen]
		if _, err := io.ReadFull(c, msg); err != nil {
			return
		}
		start := time.Now()
		framed, err := s.handleTCP(&sc, msg)
		if err != nil {
			return
		}
		if d := s.Delay(); d > 0 {
			time.Sleep(d)
		}
		if _, err := c.Write(framed); err != nil {
			return
		}
		s.m.tcpQueries.Inc()
		s.m.tcpLatency.Observe(time.Since(start))
	}
}

// handleTCP answers one TCP query and returns the response framed behind
// its 16-bit length (the bytes are sc's), clamping it to what that length
// can frame. TC semantics do not apply over TCP, so an oversized answer
// first sheds its additional section (glue); if the message still cannot
// fit, the server answers SERVFAIL rather than corrupt the frame.
func (s *Server) handleTCP(sc *scratch, wire []byte) ([]byte, error) {
	const prefix = 2
	if err := s.respond(sc, wire, prefix); err != nil {
		return nil, err
	}
	if len(sc.out)-prefix > maxTCPMessage {
		sc.resp.Additional = sc.resp.Additional[:0]
		if err := sc.encode(&sc.resp, prefix); err != nil {
			return nil, err
		}
	}
	if len(sc.out)-prefix > maxTCPMessage {
		servfail := &dnswire.Message{
			Header: dnswire.Header{
				ID:               sc.q.Header.ID,
				Response:         true,
				Authoritative:    true,
				RCode:            dnswire.RCodeServFail,
				RecursionDesired: sc.q.Header.RecursionDesired,
			},
			Questions: sc.q.Questions,
		}
		if err := sc.encode(servfail, prefix); err != nil {
			return nil, err
		}
	}
	binary.BigEndian.PutUint16(sc.out, uint16(len(sc.out)-prefix))
	return sc.out, nil
}

// Close stops the listeners, sheds queued work, and drains in-flight
// handlers: active TCP exchanges finish their response write before their
// read loop is interrupted. Close is idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	if !s.started {
		s.mu.Unlock()
		return nil
	}
	if s.closing.Swap(true) {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.pc.Close()
	s.tcp.Close()
	// poke blocked TCP reads; handlers mid-exchange complete their write
	// first because each connection is served sequentially
	for c := range s.conns {
		c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	s.wg.Wait()
	return nil
}
