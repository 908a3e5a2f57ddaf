package resolver

import (
	"context"
	"time"

	"dnsddos/internal/dnswire"
)

// Client is the single query interface over every live transport: one
// question to one server address, one decoded answer, and the round-trip
// time as the client experienced it. UDPClient implements it as a plain
// datagram exchange, TCPClient as a length-prefixed stream exchange
// (RFC 1035 §4.2.2). A LiveResolver is not one: its Resolve takes the
// whole nameserver set, and a caller that drives it through a Client
// adapts Resolve to its own address list.
//
// Callers that only need "ask addr this question" — the dnsload
// generator, the UDP client's truncation fallback — take a Client and
// stay transport-agnostic.
type Client interface {
	// Query sends one question to the server at addr ("host:port") and
	// returns the decoded response and the measured round-trip time.
	Query(ctx context.Context, addr, name string, qtype dnswire.Type) (*dnswire.Message, time.Duration, error)
}

// ClientFunc adapts a plain function to the Client interface, the usual
// func-adapter idiom (http.HandlerFunc) for stubs and fault injection.
type ClientFunc func(ctx context.Context, addr, name string, qtype dnswire.Type) (*dnswire.Message, time.Duration, error)

// Query calls f.
func (f ClientFunc) Query(ctx context.Context, addr, name string, qtype dnswire.Type) (*dnswire.Message, time.Duration, error) {
	return f(ctx, addr, name, qtype)
}

var (
	_ Client = (*UDPClient)(nil)
	_ Client = (*TCPClient)(nil)
	_ Client = (ClientFunc)(nil)
)
