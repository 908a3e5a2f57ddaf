// Throughput benchmarks for the concurrent serving engine, driven by the
// internal/dnsload generator over real loopback sockets: one try per
// query through a resolver.UDPClient (a socket of its own per query) or
// a resolver.TCPClient (a connection dialed per query). Each answer
// carries a small artificial service delay (the Delay knob, a
// time.Sleep) modelling handler latency — the exact condition under which
// the seed's single-goroutine UDP loop collapsed. A sleep that short
// lasts far longer than asked when the process is otherwise idle (a
// 200 µs one ≈ 1.1–1.4 ms on a 2-vCPU Linux VM), so each UDP row also
// reports service-us, the delay as measured in the idle process before
// the load starts. With workers=1 the process idles while its one worker
// sleeps, and the row is capped near 1/service-us; a busier process wakes
// its sleepers sooner, so the worker pool overlaps the latency and can
// beat workers × that cap. Compare sub-benchmark "queries/s" metrics:
//
//	go test -bench Throughput -benchtime 2s ./internal/authserver/
package authserver_test

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"dnsddos/internal/authserver"
	"dnsddos/internal/dnsload"
	"dnsddos/internal/dnswire"
	"dnsddos/internal/netx"
	"dnsddos/internal/resolver"
)

// benchServiceDelay models per-answer handler latency (backend lookups,
// large NSSet encodes) that a correct server must overlap, not serialize.
const benchServiceDelay = 200 * time.Microsecond

// measuredDelay is how long the server's per-answer delay lasts in the
// idle benchmark process, which runs the server: the median of 32
// time.Sleep(benchServiceDelay) calls.
func measuredDelay() time.Duration {
	var d [32]time.Duration
	for i := range d {
		t0 := time.Now()
		time.Sleep(benchServiceDelay)
		d[i] = time.Since(t0)
	}
	slices.Sort(d[:])
	return d[len(d)/2]
}

func benchZone() (*authserver.Zone, []string) {
	zone := authserver.NewZone()
	names := make([]string, 32)
	for i := range names {
		d := fmt.Sprintf("domain-%02d.example", i)
		names[i] = d
		for n := 0; n < 2; n++ {
			host := fmt.Sprintf("ns%d.provider-%02d.example", n, i)
			zone.AddNS(d, host)
			zone.AddA(host, netx.Addr(uint32(0x0b000000+i*2+n)))
		}
	}
	return zone, names
}

func benchUDPThroughput(b *testing.B, workers int) {
	zone, names := benchZone()
	srv := authserver.NewServer(zone, nil)
	srv.Workers = workers
	srv.Readers = 2
	srv.QueueDepth = 8192
	srv.SetDelay(benchServiceDelay)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	service := measuredDelay()
	b.ResetTimer()
	res, err := dnsload.Run(context.Background(), dnsload.Config{
		Addr:        addr,
		Names:       names,
		Concurrency: 4 * workers,
		Queries:     b.N,
		Timeout:     10 * time.Second,
		Client:      &resolver.UDPClient{},
	})
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	if res.Received == 0 {
		b.Fatal("no answers received")
	}
	b.ReportMetric(res.QPS(), "queries/s")
	b.ReportMetric(float64(service)/1e3, "service-us")
	b.ReportMetric(100*res.LossRate(), "%loss")
	b.ReportMetric(float64(res.LatencyQuantile(0.99))/1e6, "p99-ms")
}

// BenchmarkServer_UDPThroughput measures sustained UDP answer rate as the
// worker pool grows; the workers=1 row is the seed's effective
// architecture (one goroutine serializing every answer).
func BenchmarkServer_UDPThroughput(b *testing.B) {
	for _, w := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			benchUDPThroughput(b, w)
		})
	}
}

func benchTCPThroughput(b *testing.B, conns int) {
	zone, names := benchZone()
	srv := authserver.NewServer(zone, nil)
	srv.MaxConns = 2 * conns
	srv.SetDelay(benchServiceDelay)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	b.ResetTimer()
	res, err := dnsload.Run(context.Background(), dnsload.Config{
		Addr:        addr,
		Names:       names,
		Concurrency: conns,
		Queries:     b.N,
		Timeout:     10 * time.Second,
		Client:      &resolver.TCPClient{},
	})
	b.StopTimer()
	if err != nil {
		b.Fatal(err)
	}
	if res.Received == 0 {
		b.Fatal("no answers received")
	}
	b.ReportMetric(res.QPS(), "queries/s")
	b.ReportMetric(100*res.LossRate(), "%loss")
}

// BenchmarkServer_TCPThroughput measures DNS-over-TCP exchange rate as
// concurrent senders, each dialing a connection per query, fan out
// across per-connection handler goroutines.
func BenchmarkServer_TCPThroughput(b *testing.B) {
	for _, c := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("conns=%d", c), func(b *testing.B) {
			benchTCPThroughput(b, c)
		})
	}
}

// BenchmarkZoneAnswer builds the NS response (two records, two glue
// addresses) the throughput runs serve, as a fresh message per call.
func BenchmarkZoneAnswer(b *testing.B) {
	zone, names := benchZone()
	questions := make([]dnswire.Question, len(names))
	for i, name := range names {
		questions[i] = dnswire.Question{Name: name, Type: dnswire.TypeNS, Class: dnswire.ClassIN}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if resp := zone.Answer(questions[i%len(questions)]); len(resp.Answers) != 2 {
			b.Fatalf("answers = %d", len(resp.Answers))
		}
	}
}
