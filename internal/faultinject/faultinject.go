// Package faultinject degrades real sockets the way a DDoS degrades a
// network path: composable netem-style wrappers around an unconnected UDP
// socket (PacketConn, over the netip.AddrPort read and write of
// *net.UDPConn) and a connected net.Conn inject packet drop, added
// latency with jitter, duplication, byte corruption and truncation, under
// a profile that can be reshaped while traffic flows. Swapping the profile at the edges of an "attack
// window" lets the live authserver/resolver/dnsload path reproduce the
// degradation the paper measures on the simulated data plane (§6.3): the
// same query stream, the same nsset.QueryStatus classification, but over
// genuine sockets.
//
// The wrappers sit on either end of the UDP path: authserver plugs a
// wrapped listener in via Server.WrapUDP, whose authserver.UDPConn
// contract PacketConn satisfies and wraps (faults on the server's edge,
// like an attacked authoritative), and resolver.UDPClient wraps its
// client socket via its Wrap hook (faults on the resolver's path, like
// congested transit). All randomness comes from a seeded generator so
// tests are reproducible.
package faultinject

import (
	"math/rand/v2"
	"sync"
	"time"
)

// Profile describes the fault mix applied to traffic through a wrapper.
// The zero Profile is a healthy network: every field off.
type Profile struct {
	// Drop is the probability ∈ [0,1] that a datagram is silently
	// discarded.
	Drop float64
	// Latency is added to every faulted traversal, before Jitter.
	Latency time.Duration
	// Jitter adds a uniform random extra delay in [0, Jitter).
	Jitter time.Duration
	// Duplicate is the probability a datagram is delivered twice.
	Duplicate float64
	// Corrupt is the probability one random byte of the payload is
	// bit-flipped.
	Corrupt float64
	// Truncate is the probability an inbound datagram is delivered cut
	// short below the 12-byte DNS header (to truncateLen bytes), so the
	// wrapped endpoint receives a payload that cannot decode — a
	// deterministic decode failure where Corrupt's single bit-flip may
	// land in a don't-care byte. It applies only to reads (datagrams
	// arriving at the wrapped endpoint): a client wrapper truncates
	// answers, a server listener truncates queries.
	Truncate float64
}

// truncateLen is what remains of a truncated datagram: shorter than the
// 12-byte DNS header, so decoding always fails, but non-empty, so the
// read still delivers.
const truncateLen = 7

// Active reports whether the profile injects any fault at all.
func (p Profile) Active() bool {
	return p.Drop > 0 || p.Latency > 0 || p.Jitter > 0 ||
		p.Duplicate > 0 || p.Corrupt > 0 || p.Truncate > 0
}

// Injector is the concurrency-safe fault source the wrappers consult per
// datagram. Its profile can be swapped (SetProfile) while wrapped
// connections carry traffic.
type Injector struct {
	mu      sync.Mutex
	rng     *rand.Rand
	profile Profile
}

// New builds an injector with a healthy profile and a seeded generator
// (all faults are reproducible for a given seed and traffic order).
func New(seed uint64) *Injector {
	return &Injector{rng: rand.New(rand.NewPCG(seed, 0xfa017))}
}

// SetProfile installs the fault profile every later datagram is rolled
// against. Safe while traffic flows.
func (inj *Injector) SetProfile(p Profile) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.profile = p
}

// verdict is the dice roll for one datagram traversal.
type verdict struct {
	drop      bool
	duplicate bool
	corrupt   bool
	truncate  bool
	delay     time.Duration
}

// roll draws one verdict from the profile currently in force.
func (inj *Injector) roll() verdict {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	p := inj.profile
	var v verdict
	if !p.Active() {
		return v
	}
	if p.Drop > 0 && inj.rng.Float64() < p.Drop {
		v.drop = true
		return v // a dropped datagram needs no further faults
	}
	if p.Duplicate > 0 && inj.rng.Float64() < p.Duplicate {
		v.duplicate = true
	}
	if p.Corrupt > 0 && inj.rng.Float64() < p.Corrupt {
		v.corrupt = true
	}
	if p.Truncate > 0 && inj.rng.Float64() < p.Truncate {
		v.truncate = true
	}
	v.delay = p.Latency
	if p.Jitter > 0 {
		v.delay += time.Duration(inj.rng.Int64N(int64(p.Jitter)))
	}
	return v
}

// corruptByte flips one random bit of one random byte in place.
func (inj *Injector) corruptByte(b []byte) {
	if len(b) == 0 {
		return
	}
	inj.mu.Lock()
	i := inj.rng.IntN(len(b))
	bit := byte(1) << inj.rng.IntN(8)
	inj.mu.Unlock()
	b[i] ^= bit
}
