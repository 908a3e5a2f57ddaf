// Package attacksim generates DDoS attack traffic for the reproduction.
//
// The paper's telescope observes randomly-and-uniformly-spoofed (RSDoS)
// attacks only (§2.1); reflected and direct attacks are invisible to it but
// still harm the victim, which is one source of the weak intensity/impact
// correlation in §6.4. The engine therefore models three vectors and lets
// the data plane (internal/simnet) see all of them while the telescope sees
// only the spoofed one.
//
// Two fidelity levels share one Spec type:
//
//   - Packet level: Flood emits individual spoofed attack packets
//     (internal/packet) which internal/backscatter turns into victim
//     responses; used for case studies and tests.
//   - Flow level: WindowLoad reports the victim-side attack rate per
//     5-minute window; the telescope's thinned sampler and the simnet load
//     model consume it directly for the 17-month longitudinal runs.
package attacksim

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"time"

	"dnsddos/internal/clock"
	"dnsddos/internal/netx"
	"dnsddos/internal/packet"
)

// Vector is the attack mechanism.
type Vector int

// Attack vectors.
const (
	// VectorRandomSpoofed: volumetric flood with uniformly spoofed
	// sources; the only vector producing telescope-visible backscatter.
	VectorRandomSpoofed Vector = iota
	// VectorReflection: reflected/amplified traffic (spoofed victim
	// address at reflectors); invisible to the telescope.
	VectorReflection
	// VectorDirect: unspoofed traffic from attacking infrastructure;
	// also invisible to the telescope.
	VectorDirect
)

// String renders the vector name.
func (v Vector) String() string {
	switch v {
	case VectorRandomSpoofed:
		return "random-spoofed"
	case VectorReflection:
		return "reflection"
	case VectorDirect:
		return "direct"
	default:
		return fmt.Sprintf("vector(%d)", int(v))
	}
}

// Spec describes one attack component: a single vector against a single
// target. Multi-vector attacks are several Specs sharing a GroupID.
type Spec struct {
	ID      int
	GroupID int // shared by components of a multi-vector attack
	Target  netx.Addr
	Vector  Vector
	Proto   packet.Protocol
	// Ports are the targeted destination ports; most attacks target a
	// single port (§6.2: 80.7% single port/proto).
	Ports []uint16
	Start time.Time
	End   time.Time
	// PPS is the packet rate arriving at the victim.
	PPS float64
	// PacketBytes is the mean attack packet size, used for the inferred
	// traffic-volume (Gbps) figures in Table 2.
	PacketBytes int
	// SpoofedSources is the number of distinct spoofed source addresses
	// the attacker cycles through; for uniform spoofing this is
	// effectively unbounded and sources are drawn fresh per packet.
	// Zero means uniform-random per packet.
	SpoofedSources int
}

// Duration returns the attack component duration.
func (s *Spec) Duration() time.Duration { return s.End.Sub(s.Start) }

// ActiveIn reports whether the attack overlaps window w, and the fraction
// of the window it covers (for partial first/last windows). The overlap is
// worked out in Unix nanoseconds, not by building the window's two
// time.Times: the same Duration, so the same float64.
func (s *Spec) ActiveIn(w clock.Window) (float64, bool) {
	ws := w.UnixNano()
	we := ws + int64(clock.WindowDur)
	start, end := s.Start.UnixNano(), s.End.UnixNano()
	if start >= we || end <= ws {
		return 0, false
	}
	return float64(min(end, we)-max(start, ws)) / float64(clock.WindowDur), true
}

// WindowLoad returns the mean victim-side packet rate contributed by the
// attack during window w (0 when inactive).
func (s *Spec) WindowLoad(w clock.Window) float64 {
	frac, ok := s.ActiveIn(w)
	if !ok {
		return 0
	}
	return s.PPS * frac
}

// Gbps returns the attack bandwidth implied by PPS and PacketBytes.
func (s *Spec) Gbps() float64 { return s.PPS * float64(s.PacketBytes) * 8 / 1e9 }

// Schedule is an immutable, time-indexed collection of attack specs.
type Schedule struct {
	specs []Spec // sorted by Start
}

// NewSchedule builds a schedule (specs are copied and sorted by start time;
// IDs are assigned sequentially if zero).
func NewSchedule(specs []Spec) *Schedule {
	s := make([]Spec, len(specs))
	copy(s, specs)
	slices.SortStableFunc(s, func(a, b Spec) int { return a.Start.Compare(b.Start) })
	for i := range s {
		if s[i].ID == 0 {
			s[i].ID = i + 1
		}
		if s[i].GroupID == 0 {
			s[i].GroupID = s[i].ID
		}
	}
	return &Schedule{specs: s}
}

// Specs returns all specs in start order (shared slice; read-only).
func (sc *Schedule) Specs() []Spec { return sc.specs }

// Len returns the number of attack components.
func (sc *Schedule) Len() int { return len(sc.specs) }

// ActiveAt returns the specs overlapping window w.
func (sc *Schedule) ActiveAt(w clock.Window) []Spec {
	var out []Spec
	// specs sorted by start; scan those starting strictly before the
	// window's (exclusive) end
	i := sort.Search(len(sc.specs), func(i int) bool { return !sc.specs[i].Start.Before(w.End()) })
	for _, s := range sc.specs[:i] {
		if _, ok := s.ActiveIn(w); ok {
			out = append(out, s)
		}
	}
	return out
}

// VictimLoad sums the victim-side packet rate of all vectors hitting addr
// in window w. The data plane uses this (all vectors harm the victim).
func (sc *Schedule) VictimLoad(addr netx.Addr, w clock.Window) float64 {
	var total float64
	for _, s := range sc.ActiveAt(w) {
		if s.Target == addr {
			total += s.WindowLoad(w)
		}
	}
	return total
}

// SpoofedLoad sums only the telescope-visible (randomly spoofed) packet
// rate against addr in window w.
func (sc *Schedule) SpoofedLoad(addr netx.Addr, w clock.Window) float64 {
	var total float64
	for _, s := range sc.ActiveAt(w) {
		if s.Target == addr && s.Vector == VectorRandomSpoofed {
			total += s.WindowLoad(w)
		}
	}
	return total
}

// Targets returns the distinct victim addresses in the schedule.
func (sc *Schedule) Targets() []netx.Addr {
	seen := make(map[netx.Addr]struct{})
	var out []netx.Addr
	for _, s := range sc.specs {
		if _, ok := seen[s.Target]; !ok {
			seen[s.Target] = struct{}{}
			out = append(out, s.Target)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Flood emits the attack packets of spec s that fall inside window w,
// downsampled by rate (1.0 = every packet; 0.01 = 1 in 100). Each emitted
// packet carries a uniformly spoofed source. The emit callback returns
// false to stop early.
//
// Timestamps are spread uniformly over the active part of the window so the
// telescope's peak-rate estimator sees a realistic arrival process.
func (s *Spec) Flood(rng *rand.Rand, w clock.Window, rate float64, emit func(t time.Time, p packet.Packet) bool) {
	frac, ok := s.ActiveIn(w)
	if !ok || s.Vector != VectorRandomSpoofed {
		return
	}
	n := int64(s.PPS * frac * clock.WindowDur.Seconds() * rate)
	if n <= 0 {
		return
	}
	from := w.Start()
	if s.Start.After(from) {
		from = s.Start
	}
	span := time.Duration(frac * float64(clock.WindowDur))
	for i := int64(0); i < n; i++ {
		src := s.spoofedSource(rng)
		ts := from.Add(time.Duration(rng.Float64() * float64(span)))
		p := packet.Packet{
			IP: packet.IPv4Header{
				TTL:      64,
				Protocol: s.Proto,
				Src:      src,
				Dst:      s.Target,
			},
		}
		port := s.Ports[rng.IntN(len(s.Ports))]
		switch s.Proto {
		case packet.ProtoTCP:
			p.TCP = &packet.TCPHeader{
				SrcPort: uint16(1024 + rng.IntN(64000)),
				DstPort: port,
				Seq:     rng.Uint32(),
				Flags:   packet.FlagSYN,
				Window:  65535,
			}
		case packet.ProtoUDP:
			p.UDP = &packet.UDPHeader{
				SrcPort: uint16(1024 + rng.IntN(64000)),
				DstPort: port,
			}
		case packet.ProtoICMP:
			p.ICMP = &packet.ICMPHeader{Type: 8} // echo request
		}
		if !emit(ts, p) {
			return
		}
	}
}

func (s *Spec) spoofedSource(rng *rand.Rand) netx.Addr {
	if s.SpoofedSources <= 0 {
		return netx.RandomGlobalAddr(rng)
	}
	// cycle a bounded pool deterministically derived from the spec ID
	i := rng.IntN(s.SpoofedSources)
	return netx.Addr(uint32(s.ID)*2654435761 + uint32(i)*40503)
}
