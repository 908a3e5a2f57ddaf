package authserver

import (
	"context"
	"testing"
	"time"

	"dnsddos/internal/dnswire"
	"dnsddos/internal/leakcheck"
	"dnsddos/internal/resolver"
)

// leak_test.go asserts the server's whole goroutine fleet — UDP readers,
// the worker pool, the TCP accept loop, and per-connection handlers —
// drains on Close. A reader or worker that outlives Close would pile up
// across the repeated start/stop cycles the study pipeline and the
// chaos suite perform.

func TestStartCloseNoGoroutineLeaks(t *testing.T) {
	leakcheck.NoGoroutineLeaks(t)

	for i := 0; i < 3; i++ {
		addr, srv := startTestServer(t)

		// exercise both transports so per-query and per-connection
		// goroutines actually spawn before the teardown
		client := &resolver.UDPClient{Timeout: 2 * time.Second}
		if _, _, err := client.Query(context.Background(), addr, "example.nl", dnswire.TypeNS); err != nil {
			t.Fatalf("cycle %d: udp query: %v", i, err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		if _, err := QueryTCP(ctx, addr, "example.nl", dnswire.TypeNS); err != nil {
			t.Fatalf("cycle %d: tcp query: %v", i, err)
		}
		cancel()

		srv.Close() // idempotent with the t.Cleanup registered by startTestServer
	}
}

// TestCloseIdempotentNoLeaks: double-Close must neither panic nor
// strand the serve goroutines.
func TestCloseIdempotentNoLeaks(t *testing.T) {
	leakcheck.NoGoroutineLeaks(t)
	_, srv := startTestServer(t)
	srv.Close()
	srv.Close()
}
