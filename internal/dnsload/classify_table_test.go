package dnsload

import (
	"context"
	"net"
	"testing"
	"time"

	"dnsddos/internal/dnswire"
	"dnsddos/internal/obs"
	"dnsddos/internal/resolver"
)

// classify_table_test.go drives every outcome class through the one
// engine in one table: each row's Client fails (or answers) every query
// the same way, the generator must attribute all of them to exactly one
// bucket (timeout vs other vs received), with nothing leaking into
// neighbouring classes, and the obs counters must mirror the Result
// totals exactly.

func TestFailureClassificationTable(t *testing.T) {
	authAddr := startServer(t, nil)
	// a TCP peer that accepts and at once closes every connection: the
	// exchange is aborted before an answer
	abort, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { abort.Close() })
	go func() {
		for {
			c, err := abort.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	servfail := resolver.ClientFunc(func(context.Context, string, string, dnswire.Type) (*dnswire.Message, time.Duration, error) {
		return &dnswire.Message{Header: dnswire.Header{Response: true, RCode: dnswire.RCodeServFail}}, time.Millisecond, nil
	})

	cases := []struct {
		name   string
		addr   string
		client resolver.Client
		// want reads the Result field that must hold every query
		want func(*Result) int64
	}{
		{
			name:   "udp-drop-is-timeout",
			addr:   lossyServer(t, 13, 1),
			client: &resolver.UDPClient{},
			want:   func(r *Result) int64 { return r.Timeouts },
		},
		{
			name:   "udp-truncate-is-other",
			addr:   authAddr,
			client: truncatingUDPClient(13),
			want:   func(r *Result) int64 { return r.Errors },
		},
		{
			name:   "tcp-abort-is-other",
			addr:   abort.Addr().String(),
			client: &resolver.TCPClient{},
			want:   func(r *Result) int64 { return r.Errors },
		},
		{
			name:   "tcp-refused-is-other",
			addr:   refusedAddr(t),
			client: &resolver.TCPClient{},
			want:   func(r *Result) int64 { return r.Errors },
		},
		{
			name:   "servfail-is-received",
			addr:   "servfail.invalid:53",
			client: servfail,
			want:   func(r *Result) int64 { return r.ServFails() },
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const queries = 6
			reg := obs.New()
			res, err := Run(context.Background(), Config{
				Addr:        tc.addr,
				Names:       []string{"load.example"},
				Concurrency: 2,
				Queries:     queries,
				Timeout:     150 * time.Millisecond,
				Client:      tc.client,
				Metrics:     reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := tc.want(res); got != queries {
				t.Errorf("expected class holds %d of %d queries\nresult: %+v", got, queries, res)
			}
			if res.Sent != queries {
				t.Errorf("sent=%d, want %d", res.Sent, queries)
			}
			if total := res.Received + res.Timeouts + res.Errors; total != queries {
				t.Errorf("classes leak: received=%d timeout=%d other=%d, want %d total",
					res.Received, res.Timeouts, res.Errors, queries)
			}

			// obs counters must mirror the Result exactly
			snap := reg.Snapshot()
			mirror := map[string]int64{
				"dnsload.sent":     res.Sent,
				"dnsload.received": res.Received,
				"dnsload.timeouts": res.Timeouts,
				"dnsload.errors":   res.Errors,
			}
			for name, want := range mirror {
				if got := snap.Counters[name]; got != want {
					t.Errorf("%s = %d, Result says %d", name, got, want)
				}
			}
		})
	}
}
