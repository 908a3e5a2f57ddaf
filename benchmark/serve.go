package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"sync/atomic"
	"time"

	"dnsddos/internal/authserver"
	"dnsddos/internal/dnsload"
	"dnsddos/internal/dnswire"
	"dnsddos/internal/nsset"
	"dnsddos/internal/obs"
	"dnsddos/internal/resolver"
	"dnsddos/internal/scenario"
	"dnsddos/internal/stats"
)

// serve.go is the serve_clean workload: two authoritative servers on
// loopback, and two dnsload senders that each wait for a reply before
// sending again (a closed loop, as a measuring resolver is), resolving NS
// queries through one retrying resolver.LiveResolver that rotates over
// both servers. No faults are injected. The operation is one resolved
// query; queries are sent in segments of a fixed count so that none is cut
// off by a deadline, and every timing is taken per segment.

// timeoutError is what the fleet client returns when a resolution used up
// its tries; dnsload counts it as a timeout.
type timeoutError struct{}

func (timeoutError) Error() string   { return "benchmark: resolution timed out" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

// fleet is the booted serving stack plus the client that checks answers.
type fleet struct {
	servers []*authserver.Server
	addrs   []string
	zone    *authserver.Zone
	names   []string
	wantNS  map[string]int // NS records the zone holds per query name
	reg     *obs.Registry  // resolver.live.* and dnsload.*
	lr      *resolver.LiveResolver
	genTime time.Duration
	domains int

	tr    *tracer // set between segments only
	runID atomic.Int64
	wrong atomic.Int64 // answers that were not NOERROR with the zone's NS set
}

func (f *fleet) close() {
	for _, s := range f.servers {
		s.Close()
	}
}

// Query resolves one name over the whole fleet and checks the answer; the
// address dnsload passes is ignored.
func (f *fleet) Query(ctx context.Context, _, name string, qtype dnswire.Type) (*dnswire.Message, time.Duration, error) {
	start := time.Now()
	var id int
	if f.tr != nil {
		id = f.tr.begin("resolver.Resolve", noSpan, int(f.runID.Add(1)))
	}
	o := f.lr.Resolve(ctx, f.addrs, name, qtype)
	if f.tr != nil {
		f.tr.end(id)
	}
	switch o.Status {
	case nsset.StatusOK:
		if o.Msg.Header.RCode != dnswire.RCodeNoError || len(o.Msg.Answers) != f.wantNS[name] {
			f.wrong.Add(1)
		}
		return o.Msg, o.RTT, nil
	case nsset.StatusServFail:
		return &dnswire.Message{Header: dnswire.Header{Response: true, RCode: dnswire.RCodeServFail}}, time.Since(start), nil
	default:
		return nil, 0, timeoutError{}
	}
}

func bootFleet(e *env) (*fleet, error) {
	f := &fleet{reg: obs.New(), wantNS: make(map[string]int)}
	t0 := time.Now()
	world := scenario.GenerateWorld(scenario.WorldConfig{
		Seed:               subSeed(e.seed, streamWorld),
		Domains:            e.sc.serveDomains,
		GenericProviders:   20,
		MisconfiguredShare: 0.003,
		AnycastRecall:      0.9,
		InconsistentShare:  0.04,
	})
	f.genTime = time.Since(t0)
	f.domains = len(world.DB.Domains)
	f.zone = authserver.FromDB(world.DB)
	for i := 0; i < e.sc.serveNames; i++ {
		d := &world.DB.Domains[i*len(world.DB.Domains)/e.sc.serveNames]
		f.names = append(f.names, d.Name)
		f.wantNS[d.Name] = len(d.NS)
	}
	for i := 0; i < cpuLimit; i++ {
		srv := authserver.NewServer(f.zone, nil)
		addr, err := srv.Start("127.0.0.1:0")
		if err != nil {
			f.close()
			return nil, fmt.Errorf("starting server %d: %w", i, err)
		}
		f.servers = append(f.servers, srv)
		f.addrs = append(f.addrs, addr)
	}
	seed := subSeed(e.seed, streamResolver)
	f.lr = resolver.NewLiveResolver(resolver.LiveConfig{
		PerTryTimeout:    time.Second,
		MaxTries:         3,
		Backoff:          2 * time.Millisecond,
		MaxBackoff:       20 * time.Millisecond,
		TCPFallback:      true,
		BreakerThreshold: 3,
		BreakerCooldown:  time.Second,
		Metrics:          f.reg,
	}, rand.New(rand.NewPCG(seed, seed<<1|1)))
	return f, nil
}

// ready has every server of the fleet answer one query.
func (f *fleet) ready(ctx context.Context) error {
	raw := &resolver.UDPClient{Timeout: time.Second}
	for _, addr := range f.addrs {
		if _, _, err := raw.Query(ctx, addr, f.names[0], dnswire.TypeNS); err != nil {
			return fmt.Errorf("server %s is not answering: %w", addr, err)
		}
	}
	return nil
}

// segment sends n queries from cpuLimit closed-loop senders.
func (f *fleet) segment(ctx context.Context, n int) (*dnsload.Result, error) {
	return dnsload.Run(ctx, dnsload.Config{
		Addr:        f.addrs[0],
		Names:       f.names,
		Client:      f,
		Concurrency: cpuLimit,
		Queries:     n,
		Timeout:     4 * time.Second,
		Metrics:     f.reg,
	})
}

// tracedSegments caps the segments that record a span per resolution, and
// with it the trace file (about 130 bytes a span).
const tracedSegments = 4

func runServeClean(e *env) error {
	ctx := context.Background()

	// Set-up: generate the zone, build the servers' zone from it, boot the
	// fleet and have every server answer once. The last fleet booted serves
	// the measurement. The warm-up is the benchmark's own load, not work of
	// the program, and the part of a run a busy host stretches most (the
	// same 16 000 queries took 0.6 s and 1.4 s minutes apart), so it is
	// sent once, after the timed set-ups.
	var f *fleet
	var setups []usage
	for i := 0; i < e.sc.serveSetups; i++ {
		if f != nil {
			f.close()
		}
		m := markUsage()
		var err error
		if f, err = bootFleet(e); err != nil {
			return err
		}
		if err := f.ready(ctx); err != nil {
			f.close()
			return err
		}
		setups = append(setups, m.since())
	}
	defer f.close()
	e.setSetup(setups)
	if _, err := f.segment(ctx, e.sc.serveWarmup); err != nil {
		return err
	}
	f.wrong.Store(0)

	// A repeat is a segment: its wall figure is the median resolution
	// time the client saw, its other costs the segment's per answer.
	var repeats [2][]opCost // [0] tracer off, [1] tracer on
	var qps []float64       // tracer-off segments
	var rtts []float64      // seconds, tracer-off segments
	start := time.Now()
	for i := 0; i < 4 || time.Since(start) < e.budget; i++ {
		on := 0
		f.tr = nil
		if e.traced && i%4 == 3 && len(repeats[1]) < tracedSegments {
			on, f.tr = 1, e.tr
		}
		m := markUsage()
		res, err := f.segment(ctx, e.sc.serveSegment)
		if err != nil {
			return err
		}
		u := m.since()
		f.tr = nil

		e.attempted += res.Sent
		lost := res.Timeouts + res.DialErrors + res.DecodeErrors + res.Errors
		if bad := lost + res.ServFails(); bad > 0 {
			e.failed += bad
			e.logf("FAIL segment %d: %s", i, res.Summary())
		}
		if res.Sent != res.Received+lost {
			e.fail("segment %d: sent %d != answered %d + classified failures %d", i, res.Sent, res.Received, lost)
		}
		lat := res.Latencies()
		repeats[on] = append(repeats[on], u.perOp(time.Duration(stats.Median(lat)*float64(time.Second)), float64(res.Received)))
		if e.traced && on == 0 {
			// Only the traced pass reports these; kept out of the untraced
			// pass so that its peak RSS does not follow its throughput.
			rtts = append(rtts, lat...)
			qps = append(qps, res.QPS())
		}
	}
	if wrong := f.wrong.Load(); wrong > 0 {
		e.failed += wrong
		e.logf("FAIL %d answers were not NOERROR with the zone's NS records", wrong)
	}

	e.set("peak_rss_mb", peakRSSMB())
	e.setOpMetrics(repeats[0])
	if !e.traced {
		return nil
	}

	e.set("scenario.generate_s", f.genTime.Seconds())
	e.set("scenario.domains", float64(f.domains))
	if err := f.probes(ctx, e); err != nil {
		return err
	}
	p50 := e.values["op.wall_ms"] * 1e3
	e.set("resolver.live_overhead_us", p50-e.values["authserver.raw_rtt_p50_us"])
	count := func(name string) float64 { return float64(f.reg.Counter(name).Load()) }
	resolved := count("resolver.live.resolved_ok") + count("resolver.live.resolved_servfail") + count("resolver.live.resolved_timeout")
	e.set("resolver.tries_per_query", stats.Ratio(count("resolver.live.tries"), resolved))
	e.set("resolver.tcp_fallbacks", count("resolver.live.tcp_fallbacks"))
	e.set("resolver.breaker_opens", count("resolver.live.breaker_opens"))
	e.set("dnsload.qps", stats.Median(qps))
	e.set("dnsload.qps_best", stats.Quantile(qps, 1))
	e.set("dnsload.rtt_p99_us", stats.Quantile(rtts, 0.99)*1e6)
	e.set("dnsload.rtt_p999_us", stats.Quantile(rtts, 0.999)*1e6)
	e.set("dnsload.samples", float64(len(rtts)))
	e.set("trace.overhead_share", stats.Ratio(steadyOf(repeats[1], wallOf)*1e3-p50, p50))
	return nil
}

// probes time the serving layers one at a time, outside the load: the
// codec and Zone.Answer over the workload's own messages, and one plain
// UDP client straight at one server.
func (f *fleet) probes(ctx context.Context, e *env) error {
	tr := e.tr
	responses := make([]*dnswire.Message, len(f.names))
	wires := make([][]byte, len(f.names))
	questions := make([]dnswire.Question, len(f.names))
	var wireBytes int
	for i, name := range f.names {
		questions[i] = dnswire.NewQuery(uint16(i), name, dnswire.TypeNS).Questions[0]
		responses[i] = f.zone.Answer(questions[i])
		w, err := dnswire.Encode(responses[i])
		if err != nil {
			return err
		}
		wires[i] = w
		wireBytes += len(w)
	}
	n := e.sc.probeIters
	// loop times n calls under one span and returns ns and allocations per call.
	loop := func(name string, call func(i int) error) (float64, float64, error) {
		before := mallocCount()
		id := tr.begin(name, noSpan, 0)
		for i := 0; i < n; i++ {
			if err := call(i % len(f.names)); err != nil {
				return 0, 0, err
			}
		}
		d := tr.end(id)
		return float64(d) / float64(n), float64(mallocCount()-before) / float64(n), nil
	}
	ns, allocs, err := loop("dnswire.Encode", func(i int) error { _, err := dnswire.Encode(responses[i]); return err })
	if err != nil {
		return err
	}
	e.set("dnswire.encode_ns", ns)
	e.set("dnswire.encode_allocs", allocs)
	ns, allocs, err = loop("dnswire.Decode", func(i int) error { _, err := dnswire.Decode(wires[i]); return err })
	if err != nil {
		return err
	}
	e.set("dnswire.decode_ns", ns)
	e.set("dnswire.decode_allocs", allocs)
	e.set("dnswire.response_bytes", float64(wireBytes)/float64(len(wires)))
	ns, allocs, _ = loop("authserver.Zone.Answer", func(i int) error { f.zone.Answer(questions[i]); return nil })
	e.set("authserver.answer_ns", ns)
	e.set("authserver.answer_allocs", allocs)

	// Raw round trips, as medians of chunks of 100 so that they compare
	// with the segments' medians.
	raw := &resolver.UDPClient{Timeout: time.Second}
	var medians, chunk []float64
	id := tr.begin("resolver.UDPClient.Query", noSpan, 0)
	for i := 0; i < n/10; i++ {
		_, rtt, err := raw.Query(ctx, f.addrs[0], f.names[i%len(f.names)], dnswire.TypeNS)
		if err != nil {
			return fmt.Errorf("raw RTT probe: %w", err)
		}
		if chunk = append(chunk, rtt.Seconds()*1e6); len(chunk) == 100 || i == n/10-1 {
			medians = append(medians, stats.Median(chunk))
			chunk = chunk[:0]
		}
	}
	tr.end(id)
	e.set("authserver.raw_rtt_p50_us", stats.Median(medians))

	servers := obs.New()
	for _, s := range f.servers {
		servers.Merge(s.Metrics())
	}
	e.set("authserver.handle_p50_us", servers.Histogram("authserver.udp_latency").Quantile(0.5).Seconds()*1e6)
	e.set("authserver.udp_answered", float64(servers.Counter("authserver.udp_answered").Load()))
	e.set("authserver.udp_dropped", float64(servers.Counter("authserver.udp_dropped").Load()))
	return nil
}

var _ net.Error = timeoutError{}
