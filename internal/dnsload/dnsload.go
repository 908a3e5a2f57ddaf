// Package dnsload is a DNS load generator in the style of dnsperfbench:
// it fans a query stream out over a configurable number of concurrent
// senders, optionally paced to a target aggregate query rate, and reports
// latency quantiles, loss, and response-code counts built on
// internal/stats. The authoritative-server throughput benchmarks and the
// livedns example use it to measure what the concurrent serving engine
// actually sustains — authoritative capacity under load being the first
// layer of DDoS defense (Rizvi et al.).
package dnsload

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dnsddos/internal/dnswire"
	"dnsddos/internal/obs"
	"dnsddos/internal/resolver"
	"dnsddos/internal/stats"
)

// Proto selects the query transport.
type Proto string

// Transports: plain UDP datagrams or length-prefixed DNS-over-TCP.
const (
	ProtoUDP Proto = "udp"
	ProtoTCP Proto = "tcp"
)

// Config describes one load run.
type Config struct {
	// Addr is the server's "host:port".
	Addr string
	// Names are the query names, cycled round-robin per sender.
	Names []string
	// Type is the query type; zero means NS (the paper's probe type).
	Type dnswire.Type
	// Proto is the transport; empty means UDP.
	Proto Proto
	// Concurrency is the sender fan-out; zero means 8. Each sender owns
	// one socket (UDP) or one connection (TCP) for its whole run.
	Concurrency int
	// TargetQPS paces the aggregate send rate (open-loop); zero means
	// unthrottled — each sender issues its next query as soon as the
	// previous one resolves.
	TargetQPS float64
	// Queries is the total number of queries to issue. Zero means run
	// until Duration elapses.
	Queries int
	// Duration bounds the run when Queries is zero; zero means 1s.
	Duration time.Duration
	// Timeout bounds one query round trip; zero means 2s. A query that
	// times out counts as lost.
	Timeout time.Duration
	// EDNSPayload, when nonzero, attaches an EDNS OPT record advertising
	// this UDP payload size.
	EDNSPayload uint16
	// Wrap, when set, wraps each sender's socket before traffic flows —
	// the client-side fault-injection hook (e.g. a closure over
	// faultinject.WrapDatagram for UDP or WrapStream for TCP).
	Wrap func(net.Conn) net.Conn
	// Client, when set, routes every query through this transport-
	// agnostic resolver.Client instead of the raw socket engine — e.g. a
	// *resolver.LiveResolver for load with retries and TC→TCP fallback,
	// or a ClientFunc stub. The Client owns transport concerns, so
	// Proto, EDNSPayload and Wrap are ignored; pacing, concurrency and
	// outcome accounting work the same either way.
	Client resolver.Client
	// Metrics, when non-nil, receives live per-query observations under
	// dnsload.* names (rtt histogram plus sent/received/failure-class
	// counters) so a -metrics-addr endpoint can watch a run mid-flight.
	// The final Result carries the same totals either way.
	Metrics *obs.Registry
}

// Result aggregates a finished run.
type Result struct {
	// Sent/Received count queries issued and answers matched. Failed
	// queries are classified so degradation experiments can tell drops
	// from decode garbage from dial failures: Timeouts are queries with
	// no answer inside Timeout (UDP loss under overload); DialErrors
	// are connection-setup failures; DecodeErrors are queries whose
	// only answer(s) inside the deadline failed to decode (corruption);
	// Errors are the remaining transport-level failures. RCODE-level
	// failures (SERVFAIL etc.) count as Received and show in RCodes.
	Sent         int64
	Received     int64
	Timeouts     int64
	DialErrors   int64
	DecodeErrors int64
	Errors       int64
	// RCodes counts answers by response code; Truncated counts answers
	// carrying the TC bit.
	RCodes    map[dnswire.RCode]int64
	Truncated int64
	// Elapsed is the wall-clock span of the run.
	Elapsed time.Duration

	// latencies holds one sample per received answer, sorted ascending.
	latencies []float64 // seconds
}

// ServFails returns the count of answers carrying a SERVFAIL rcode — the
// paper's second failure class next to timeouts (§6.3.1).
func (r *Result) ServFails() int64 { return r.RCodes[dnswire.RCodeServFail] }

// Latencies returns a copy of the per-answer latency samples in
// seconds, sorted ascending — one per received answer. Callers that
// aggregate several runs (the e2ebench round loop) merge these and
// re-sort rather than averaging quantiles.
func (r *Result) Latencies() []float64 {
	out := make([]float64, len(r.latencies))
	copy(out, r.latencies)
	return out
}

// QPS returns the achieved answer rate (answers per wall-clock second).
func (r *Result) QPS() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Received) / r.Elapsed.Seconds()
}

// LossRate returns the fraction of issued queries that timed out or
// errored.
func (r *Result) LossRate() float64 {
	return stats.Ratio(float64(r.Sent-r.Received), float64(r.Sent))
}

// LatencyQuantile returns the q-quantile (0 ≤ q ≤ 1) of answer latency.
func (r *Result) LatencyQuantile(q float64) time.Duration {
	return time.Duration(stats.Quantile(r.latencies, q) * float64(time.Second))
}

// MeanLatency returns the mean answer latency.
func (r *Result) MeanLatency() time.Duration {
	return time.Duration(stats.Mean(r.latencies) * float64(time.Second))
}

// LatencyHistogram bins the latency samples into the given number of
// equal-width bins spanning [0, max-sample].
func (r *Result) LatencyHistogram(bins int) *stats.Histogram {
	max := stats.Quantile(r.latencies, 1)
	if max <= 0 {
		max = 1e-9
	}
	h := stats.NewHistogram(0, max*1.0001, bins)
	for _, l := range r.latencies {
		h.Add(l)
	}
	return h
}

// Summary renders the run as a short human-readable report.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sent %d  answered %d  loss %.2f%%  rate %.0f q/s  elapsed %s\n",
		r.Sent, r.Received, 100*r.LossRate(), r.QPS(), r.Elapsed.Round(time.Millisecond))
	if fails := r.Timeouts + r.DialErrors + r.DecodeErrors + r.Errors; fails > 0 {
		fmt.Fprintf(&b, "failures: timeout=%d dial=%d decode=%d other=%d\n",
			r.Timeouts, r.DialErrors, r.DecodeErrors, r.Errors)
	}
	if r.Received > 0 {
		fmt.Fprintf(&b, "latency p50 %s  p90 %s  p99 %s  max %s\n",
			r.LatencyQuantile(0.50).Round(time.Microsecond),
			r.LatencyQuantile(0.90).Round(time.Microsecond),
			r.LatencyQuantile(0.99).Round(time.Microsecond),
			r.LatencyQuantile(1).Round(time.Microsecond))
	}
	codes := make([]dnswire.RCode, 0, len(r.RCodes))
	for rc := range r.RCodes {
		codes = append(codes, rc)
	}
	sort.Slice(codes, func(i, j int) bool { return codes[i] < codes[j] })
	for i, rc := range codes {
		if i == 0 {
			b.WriteString("rcodes:")
		}
		fmt.Fprintf(&b, " %s=%d", rc, r.RCodes[rc])
	}
	if len(codes) > 0 {
		b.WriteByte('\n')
	}
	if r.Truncated > 0 {
		fmt.Fprintf(&b, "truncated: %d\n", r.Truncated)
	}
	return b.String()
}

// senderResult is one sender's private tally, merged after the run.
type senderResult struct {
	sent, received, timeouts, errors int64
	dialErrs, decodeErrs             int64
	truncated                        int64
	rcodes                           map[dnswire.RCode]int64
	latencies                        []float64
}

// loadMetrics mirrors the senderResult tallies into a registry as the
// run progresses. All fields no-op when Config.Metrics is nil.
type loadMetrics struct {
	sent       *obs.Counter
	received   *obs.Counter
	timeouts   *obs.Counter
	dialErrs   *obs.Counter
	decodeErrs *obs.Counter
	errors     *obs.Counter
	truncated  *obs.Counter
	rtt        *obs.Histogram
}

func newLoadMetrics(reg *obs.Registry) loadMetrics {
	return loadMetrics{
		sent:       reg.Counter("dnsload.sent"),
		received:   reg.Counter("dnsload.received"),
		timeouts:   reg.Counter("dnsload.timeouts"),
		dialErrs:   reg.Counter("dnsload.dial_errors"),
		decodeErrs: reg.Counter("dnsload.decode_errors"),
		errors:     reg.Counter("dnsload.errors"),
		truncated:  reg.Counter("dnsload.truncated"),
		rtt:        reg.Histogram("dnsload.rtt"),
	}
}

// failKind classifies one failed query.
type failKind int

const (
	failNone failKind = iota
	failDial
	failTimeout
	failDecode
	failOther
)

// Run executes the configured load against cfg.Addr and returns the
// aggregate result. It honors ctx cancellation.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Addr == "" {
		return nil, errors.New("dnsload: no target address")
	}
	if len(cfg.Names) == 0 {
		return nil, errors.New("dnsload: no query names")
	}
	proto := cfg.Proto
	if proto == "" {
		proto = ProtoUDP
	}
	if proto != ProtoUDP && proto != ProtoTCP {
		return nil, fmt.Errorf("dnsload: unknown proto %q", proto)
	}
	qtype := cfg.Type
	if qtype == 0 {
		qtype = dnswire.TypeNS
	}
	conc := cfg.Concurrency
	if conc <= 0 {
		conc = 8
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	runCtx := ctx
	if cfg.Queries <= 0 {
		dur := cfg.Duration
		if dur <= 0 {
			dur = time.Second
		}
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, dur)
		defer cancel()
	}

	// open-loop pacing: each sender spaces its sends so the fleet hits
	// TargetQPS in aggregate
	var interval time.Duration
	if cfg.TargetQPS > 0 {
		interval = time.Duration(float64(time.Second) * float64(conc) / cfg.TargetQPS)
	}

	var issued atomic.Int64
	next := func() bool {
		if runCtx.Err() != nil {
			return false
		}
		if cfg.Queries > 0 {
			return issued.Add(1) <= int64(cfg.Queries)
		}
		return true
	}

	m := newLoadMetrics(cfg.Metrics)
	cfg.Metrics.Gauge("dnsload.concurrency").Set(int64(conc))
	results := make([]senderResult, conc)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < conc; i++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			s := sender{
				cfg:      cfg,
				proto:    proto,
				qtype:    qtype,
				timeout:  timeout,
				interval: interval,
				id:       uint16(idx+1) << 8,
				res:      &results[idx],
				m:        m,
				next:     next,
				ctx:      runCtx,
			}
			s.run()
		}(i)
	}
	wg.Wait()

	out := &Result{Elapsed: time.Since(start), RCodes: make(map[dnswire.RCode]int64)}
	for i := range results {
		r := &results[i]
		out.Sent += r.sent
		out.Received += r.received
		out.Timeouts += r.timeouts
		out.DialErrors += r.dialErrs
		out.DecodeErrors += r.decodeErrs
		out.Errors += r.errors
		out.Truncated += r.truncated
		for rc, n := range r.rcodes {
			out.RCodes[rc] += n
		}
		out.latencies = append(out.latencies, r.latencies...)
	}
	sort.Float64s(out.latencies)
	return out, nil
}

// sender drives one socket's query loop.
type sender struct {
	cfg      Config
	proto    Proto
	qtype    dnswire.Type
	timeout  time.Duration
	interval time.Duration
	id       uint16
	res      *senderResult
	m        loadMetrics
	next     func() bool
	ctx      context.Context

	conn   net.Conn
	buf    []byte          // read buffer
	out    []byte          // the query's bytes, behind two for a TCP length
	msg    dnswire.Message // the last answer decoded; only its header is read
	nextAt time.Time
}

func (s *sender) run() {
	s.res.rcodes = make(map[dnswire.RCode]int64)
	s.buf = make([]byte, 65536)
	s.out = make([]byte, 2, 512)
	defer func() {
		if s.conn != nil {
			s.conn.Close()
		}
	}()
	query := s.oneQuery
	if s.cfg.Client != nil {
		query = s.oneQueryClient
	}
	for qi := 0; s.next(); qi++ {
		s.pace()
		name := s.cfg.Names[qi%len(s.cfg.Names)]
		s.id++
		switch query(name) {
		case failNone:
		case failDial:
			s.res.dialErrs++
			s.m.dialErrs.Inc()
		case failTimeout:
			s.res.timeouts++
			s.m.timeouts.Inc()
		case failDecode:
			s.res.decodeErrs++
			s.m.decodeErrs.Inc()
			s.redialTCP()
		default:
			s.res.errors++
			s.m.errors.Inc()
			s.redialTCP()
		}
	}
}

// redialTCP drops a broken TCP connection so the next query redials.
func (s *sender) redialTCP() {
	if s.proto == ProtoTCP && s.conn != nil {
		s.conn.Close()
		s.conn = nil
	}
}

// pace sleeps until this sender's next send slot. A sender that falls
// behind (slow answers) sends immediately rather than accumulating debt.
func (s *sender) pace() {
	if s.interval <= 0 {
		return
	}
	now := time.Now()
	if s.nextAt.IsZero() || s.nextAt.Before(now.Add(-10*s.interval)) {
		s.nextAt = now
	}
	if d := s.nextAt.Sub(now); d > 0 {
		select {
		case <-time.After(d):
		case <-s.ctx.Done():
		}
	}
	s.nextAt = s.nextAt.Add(s.interval)
}

// oneQuery issues a single query and records its outcome, classifying
// any failure.
func (s *sender) oneQuery(name string) failKind {
	if s.conn == nil {
		var d net.Dialer
		conn, err := d.DialContext(s.ctx, string(s.proto), s.cfg.Addr)
		if err != nil {
			return failDial
		}
		if s.cfg.Wrap != nil {
			conn = s.cfg.Wrap(conn)
		}
		s.conn = conn
	}
	q := dnswire.NewQuery(s.id, name, s.qtype)
	if s.cfg.EDNSPayload > 0 {
		q.AttachEDNS(dnswire.EDNS{UDPPayload: s.cfg.EDNSPayload})
	}
	prefix := 0 // over TCP the message goes behind its 16-bit length
	if s.proto == ProtoTCP {
		prefix = 2
	}
	wire, err := dnswire.AppendEncode(s.out[:prefix], q)
	if err != nil {
		return failOther
	}
	s.out = wire
	if prefix > 0 {
		binary.BigEndian.PutUint16(wire, uint16(len(wire)-prefix))
	}
	if err := s.conn.SetDeadline(time.Now().Add(s.timeout)); err != nil {
		return failOther
	}
	start := time.Now()
	if _, err := s.conn.Write(wire); err != nil {
		return classifyErr(err, false)
	}
	s.res.sent++
	s.m.sent.Inc()
	sawGarbage := false
	for {
		var payload []byte
		if s.proto == ProtoTCP {
			var lenb [2]byte
			if _, err := io.ReadFull(s.conn, lenb[:]); err != nil {
				return classifyErr(err, sawGarbage)
			}
			n := int(binary.BigEndian.Uint16(lenb[:]))
			if _, err := io.ReadFull(s.conn, s.buf[:n]); err != nil {
				return classifyErr(err, sawGarbage)
			}
			payload = s.buf[:n]
		} else {
			n, err := s.conn.Read(s.buf)
			if err != nil {
				return classifyErr(err, sawGarbage)
			}
			payload = s.buf[:n]
		}
		m := &s.msg
		if err := dnswire.DecodeInto(m, payload); err != nil {
			// garbage on the wire (corruption); a valid answer may
			// still arrive before the deadline
			sawGarbage = true
			continue
		}
		if !m.Header.Response || m.Header.ID != s.id {
			continue // stale answer to an earlier timed-out query
		}
		rtt := time.Since(start)
		s.res.received++
		s.m.received.Inc()
		s.res.latencies = append(s.res.latencies, rtt.Seconds())
		s.m.rtt.Observe(rtt)
		s.res.rcodes[m.Header.RCode]++
		if m.Header.Truncated {
			s.res.truncated++
			s.m.truncated.Inc()
		}
		return failNone
	}
}

// oneQueryClient issues one query through the configured resolver.Client
// instead of the raw socket engine. The Client reports the RTT it
// measured (for a LiveResolver that is the cumulative resolution time
// including retries — the Eq. 1 RTT); failures classify by error type
// (timeouts vs everything else; the Client owns dial/decode internals).
func (s *sender) oneQueryClient(name string) failKind {
	ctx, cancel := context.WithTimeout(s.ctx, s.timeout)
	defer cancel()
	s.res.sent++
	s.m.sent.Inc()
	msg, rtt, err := s.cfg.Client.Query(ctx, s.cfg.Addr, name, s.qtype)
	if err != nil {
		return classifyErr(err, false)
	}
	s.res.received++
	s.m.received.Inc()
	s.res.latencies = append(s.res.latencies, rtt.Seconds())
	s.m.rtt.Observe(rtt)
	s.res.rcodes[msg.Header.RCode]++
	if msg.Header.Truncated {
		s.res.truncated++
		s.m.truncated.Inc()
	}
	return failNone
}

// classifyErr maps a transport error to a failure class. A deadline that
// expired after only undecodable datagrams arrived classifies as a
// decode failure — the response was delivered but corrupted — rather
// than as loss.
func classifyErr(err error, sawGarbage bool) failKind {
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		if sawGarbage {
			return failDecode
		}
		return failTimeout
	}
	return failOther
}
