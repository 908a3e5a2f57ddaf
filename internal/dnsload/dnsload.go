// Package dnsload is a closed-loop DNS load generator in the style of
// dnsperfbench: it fans an NS query stream out over a configurable number
// of concurrent senders, each sending its next query as soon as the last
// one resolves, and reports latency quantiles, loss, and response-code
// counts built on internal/stats. Every query goes through one
// resolver.Client, so the RTT it records is the one the Client measured:
// for a LiveResolver, the resolution time with retries included (the
// paper's Eq. 1 RTT). The authoritative-server throughput benchmarks, the
// degraded-mode sweep (internal/e2ebench) and the repo benchmark's
// serve_clean workload use it to measure what the concurrent serving
// engine actually sustains — authoritative capacity under load being the
// first layer of DDoS defense (Rizvi et al.).
package dnsload

import (
	"context"
	"errors"
	"fmt"
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

// Config describes one load run.
type Config struct {
	// Addr is the server's "host:port", handed to the Client with every
	// query.
	Addr string
	// Names are the query names, cycled round-robin per sender.
	Names []string
	// Concurrency is the sender fan-out; zero means 8.
	Concurrency int
	// Queries is the total number of queries to issue; it must be
	// positive.
	Queries int
	// Timeout bounds one query, retries included; zero means 2s. A query
	// that times out counts as lost.
	Timeout time.Duration
	// Client sends every query and measures its RTT: a
	// *resolver.LiveResolver for load with retries and TC→TCP fallback,
	// a *resolver.UDPClient or *resolver.TCPClient for one try per query
	// over a socket of its own, or a ClientFunc stub. Required.
	Client resolver.Client
	// Metrics, when non-nil, receives live per-query observations under
	// dnsload.* names (rtt histogram plus sent/received/failure-class
	// counters) so a -metrics-addr endpoint can watch a run mid-flight.
	// The final Result carries the same totals either way.
	Metrics *obs.Registry
}

// Result aggregates a finished run.
type Result struct {
	// Sent/Received count queries issued and answers received. A failed
	// query is one of Timeouts when the Client's error is a net.Error
	// whose Timeout() is true (no answer inside Timeout, retries
	// included: loss under overload), and one of Errors otherwise.
	// RCODE-level failures (SERVFAIL etc.) count as Received and show in
	// RCodes.
	Sent     int64
	Received int64
	Timeouts int64
	Errors   int64
	// DialErrors and DecodeErrors are always zero: the Client owns dial
	// and decode, and its failures classify as above. They stay while
	// the repo benchmark's serve workload still adds them up.
	DialErrors   int64
	DecodeErrors int64
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

// Summary renders the run as a short human-readable report.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sent %d  answered %d  loss %.2f%%  rate %.0f q/s  elapsed %s\n",
		r.Sent, r.Received, 100*r.LossRate(), r.QPS(), r.Elapsed.Round(time.Millisecond))
	if r.Timeouts+r.Errors > 0 {
		fmt.Fprintf(&b, "failures: timeout=%d other=%d\n", r.Timeouts, r.Errors)
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
	truncated                        int64
	rcodes                           map[dnswire.RCode]int64
	latencies                        []float64
}

// loadMetrics mirrors the senderResult tallies into a registry as the
// run progresses. All fields no-op when Config.Metrics is nil.
type loadMetrics struct {
	sent      *obs.Counter
	received  *obs.Counter
	timeouts  *obs.Counter
	errors    *obs.Counter
	truncated *obs.Counter
	rtt       *obs.Histogram
}

func newLoadMetrics(reg *obs.Registry) loadMetrics {
	return loadMetrics{
		sent:      reg.Counter("dnsload.sent"),
		received:  reg.Counter("dnsload.received"),
		timeouts:  reg.Counter("dnsload.timeouts"),
		errors:    reg.Counter("dnsload.errors"),
		truncated: reg.Counter("dnsload.truncated"),
		rtt:       reg.Histogram("dnsload.rtt"),
	}
}

// Run sends cfg.Queries queries through cfg.Client and returns the
// aggregate result. It honors ctx cancellation: a cancelled run stops
// issuing and reports what it sent.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Addr == "" {
		return nil, errors.New("dnsload: no target address")
	}
	if len(cfg.Names) == 0 {
		return nil, errors.New("dnsload: no query names")
	}
	if cfg.Client == nil {
		return nil, errors.New("dnsload: no client")
	}
	if cfg.Queries <= 0 {
		return nil, fmt.Errorf("dnsload: %d queries, want at least one", cfg.Queries)
	}
	conc := cfg.Concurrency
	if conc <= 0 {
		conc = 8
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}

	var issued atomic.Int64
	m := newLoadMetrics(cfg.Metrics)
	cfg.Metrics.Gauge("dnsload.concurrency").Set(int64(conc))
	results := make([]senderResult, conc)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range results {
		wg.Add(1)
		go func(res *senderResult) {
			defer wg.Done()
			res.send(ctx, &cfg, m, &issued)
		}(&results[i])
	}
	wg.Wait()

	out := &Result{Elapsed: time.Since(start), RCodes: make(map[dnswire.RCode]int64)}
	for i := range results {
		r := &results[i]
		out.Sent += r.sent
		out.Received += r.received
		out.Timeouts += r.timeouts
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

// send is one closed-loop sender: it issues its next query as soon as
// the last one resolves, until the run's queries are all issued or ctx
// is done, and tallies each outcome.
func (r *senderResult) send(ctx context.Context, cfg *Config, m loadMetrics, issued *atomic.Int64) {
	r.rcodes = make(map[dnswire.RCode]int64)
	for qi := 0; ctx.Err() == nil && issued.Add(1) <= int64(cfg.Queries); qi++ {
		r.sent++
		m.sent.Inc()
		qctx, cancel := context.WithTimeout(ctx, cfg.Timeout)
		msg, rtt, err := cfg.Client.Query(qctx, cfg.Addr, cfg.Names[qi%len(cfg.Names)], dnswire.TypeNS)
		cancel()
		switch {
		case err == nil:
			r.received++
			m.received.Inc()
			r.latencies = append(r.latencies, rtt.Seconds())
			m.rtt.Observe(rtt)
			r.rcodes[msg.Header.RCode]++
			if msg.Header.Truncated {
				r.truncated++
				m.truncated.Inc()
			}
		case isTimeout(err):
			r.timeouts++
			m.timeouts.Inc()
		default:
			r.errors++
			m.errors.Inc()
		}
	}
}

// isTimeout reports whether a failed query timed out: its error is a
// net.Error whose Timeout() is true. It is a function of its own so the
// error target escapes to the heap only when a query fails.
func isTimeout(err error) bool {
	var nerr net.Error
	return errors.As(err, &nerr) && nerr.Timeout()
}
