// Package faultinject degrades real sockets the way a DDoS degrades a
// network path: composable netem-style wrappers around net.PacketConn and
// net.Conn inject packet drop, added latency with jitter, duplication,
// byte corruption and truncation, under a profile that can be reshaped
// while traffic flows. A time-scripted Schedule ramps an "attack window"
// up and back down, so the live authserver/resolver/dnsload path can
// reproduce the degradation the paper measures on the simulated data
// plane (§6.3): the same query stream, the same nsset.QueryStatus
// classification, but over genuine sockets.
//
// The wrappers sit on either end of the UDP path: authserver plugs a
// wrapped listener in via Server.WrapUDP (faults on the server's edge,
// like an attacked authoritative), and resolver.UDPClient wraps its
// client socket via its Wrap hook (faults on the resolver's path, like
// congested transit). All randomness comes from a seeded generator so
// tests are reproducible.
package faultinject

import (
	"math/rand/v2"
	"sort"
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

// Phase is one step of a Schedule: from Start (an offset from engagement)
// onward, Profile applies.
type Phase struct {
	Start   time.Duration
	Profile Profile
}

// Schedule scripts a fault timeline: at any elapsed time the profile of
// the latest phase whose Start has passed applies. Before the first
// phase, the network is healthy (zero Profile).
type Schedule struct {
	Phases []Phase
}

// At returns the profile in force at the given elapsed time.
func (s Schedule) At(elapsed time.Duration) Profile {
	var p Profile
	for _, ph := range s.Phases {
		if ph.Start > elapsed {
			break
		}
		p = ph.Profile
	}
	return p
}

// normalize sorts phases by start time.
func (s Schedule) normalize() Schedule {
	phases := make([]Phase, len(s.Phases))
	copy(phases, s.Phases)
	sort.SliceStable(phases, func(i, j int) bool { return phases[i].Start < phases[j].Start })
	return Schedule{Phases: phases}
}

// AttackWindow builds the canonical three-phase script the paper's
// attacks follow: healthy until start, the attack profile during
// [start, end), healthy again after.
func AttackWindow(start, end time.Duration, attack Profile) Schedule {
	return Schedule{Phases: []Phase{
		{Start: 0},
		{Start: start, Profile: attack},
		{Start: end},
	}}
}

// Injector is the concurrency-safe fault source the wrappers consult per
// datagram. It serves either a static profile (SetProfile) or a
// time-scripted schedule (Engage); both can be swapped while wrapped
// connections carry traffic.
type Injector struct {
	mu     sync.Mutex
	rng    *rand.Rand
	static Profile
	sched  *Schedule
	epoch  time.Time
	now    func() time.Time // test hook
}

// New builds an injector with a healthy static profile and a seeded
// generator (all faults are reproducible for a given seed and traffic
// order).
func New(seed uint64) *Injector {
	return &Injector{
		rng: rand.New(rand.NewPCG(seed, 0xfa017)),
		now: time.Now,
	}
}

// SetProfile installs a static fault profile and disengages any
// schedule. Safe while traffic flows.
func (inj *Injector) SetProfile(p Profile) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.static = p
	inj.sched = nil
}

// Engage starts the schedule's clock now: phase offsets are measured
// from this call. Safe while traffic flows.
func (inj *Injector) Engage(s Schedule) {
	n := s.normalize()
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.sched = &n
	inj.epoch = inj.now()
}

// Disengage drops any schedule, returning to the static profile.
func (inj *Injector) Disengage() {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.sched = nil
}

// Profile returns the profile currently in force.
func (inj *Injector) Profile() Profile {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.profileLocked()
}

func (inj *Injector) profileLocked() Profile {
	if inj.sched != nil {
		return inj.sched.At(inj.now().Sub(inj.epoch))
	}
	return inj.static
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
	p := inj.profileLocked()
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
