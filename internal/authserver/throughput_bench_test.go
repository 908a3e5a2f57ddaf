// Throughput benchmarks for the concurrent serving engine, driven by the
// internal/dnsload generator over real loopback sockets. Each answer
// carries a small artificial service delay (the Delay knob) modelling
// handler latency — the exact condition under which the seed's
// single-goroutine UDP loop collapsed: with workers=1 throughput is capped
// near 1/delay, while the worker pool overlaps the latency and multiplies
// queries/sec. Compare sub-benchmark "queries/s" metrics:
//
//	go test -bench Throughput -benchtime 2s ./internal/authserver/
package authserver_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"dnsddos/internal/authserver"
	"dnsddos/internal/dnsload"
	"dnsddos/internal/dnswire"
	"dnsddos/internal/netx"
)

// benchServiceDelay models per-answer handler latency (backend lookups,
// large NSSet encodes) that a correct server must overlap, not serialize.
const benchServiceDelay = 200 * time.Microsecond

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

	b.ResetTimer()
	res, err := dnsload.Run(context.Background(), dnsload.Config{
		Addr:        addr,
		Names:       names,
		Concurrency: 4 * workers,
		Queries:     b.N,
		Timeout:     10 * time.Second,
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
		Proto:       dnsload.ProtoTCP,
		Concurrency: conns,
		Queries:     b.N,
		Timeout:     10 * time.Second,
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
// client connections fan out across per-connection handler goroutines.
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
