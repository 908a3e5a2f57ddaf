// Package attacksim generates DDoS attack traffic for the reproduction.
//
// The paper's telescope observes randomly-and-uniformly-spoofed (RSDoS)
// attacks only (§2.1); reflected and direct attacks are invisible to it but
// still harm the victim, which is one source of the weak intensity/impact
// correlation in §6.4. The engine therefore models three vectors and lets
// the data plane (internal/simnet) see all of them while the telescope sees
// only the spoofed one.
//
// A Spec is flow level: WindowLoad reports the victim-side attack rate
// per 5-minute window, which the telescope's thinned sampler
// (scenario.Synthesize) and the simnet load model consume directly for
// the 17-month longitudinal runs. No packet is ever materialized; the
// packet-level model the sampler is held to floods, answers and captures
// packet by packet in internal/rsdos's tests
// (TestPacketPathMatchesFlowPath).
//
// A Spec's Start and End are Unix nanoseconds, the unit of
// clock.Window.UnixNano, its counts are 32 bits wide and its ports lie in
// its schedule's one port array: a component takes 48 bytes, and a
// schedule at the paper's count holds millions.
package attacksim

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"dnsddos/internal/clock"
	"dnsddos/internal/netx"
	"dnsddos/internal/packet"
)

// Vector is the attack mechanism.
type Vector uint8

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
// target. Multi-vector attacks are several Specs sharing a GroupID. Its
// targeted destination ports — most attacks target a single port (§6.2:
// 80.7% single port/proto) — are kept by its schedule (Schedule.Ports).
type Spec struct {
	Start, End int64 // [Start, End), in Unix nanoseconds
	// PPS is the packet rate arriving at the victim.
	PPS     float64
	GroupID int32 // shared by components of a multi-vector attack
	Target  netx.Addr
	// SpoofedSources is the number of distinct spoofed source addresses
	// the attacker cycles through; for uniform spoofing this is
	// effectively unbounded and sources are drawn fresh per packet.
	// Zero means uniform-random per packet.
	SpoofedSources int32
	// ports and nports locate the port list in the schedule's port array.
	ports uint32
	// PacketBytes is the mean attack packet size, used for the inferred
	// traffic-volume (Gbps) figures in Table 2.
	PacketBytes uint16
	nports      uint8
	Vector      Vector
	Proto       packet.Protocol
}

// ActiveIn reports whether the attack overlaps window w, and the fraction
// of the window it covers (for partial first/last windows).
func (s *Spec) ActiveIn(w clock.Window) (float64, bool) {
	ws := w.UnixNano()
	we := ws + int64(clock.WindowDur)
	if s.Start >= we || s.End <= ws {
		return 0, false
	}
	return float64(min(s.End, we)-max(s.Start, ws)) / float64(clock.WindowDur), true
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
	specs []Spec   // sorted by Start
	ports []uint16 // every spec's port list, where its ports and nports say
}

// Builder assembles a Schedule. Components are added in any order, each
// with its port list; Schedule orders them by start time.
type Builder struct {
	specs []Spec
	ports []uint16
}

// Reserve makes room for n more components: a builder of up to that many
// grows no component array, and the schedule holds exactly the array.
func (b *Builder) Reserve(n int) { b.specs = slices.Grow(b.specs, n) }

// Add appends one component and its targeted ports (none for ICMP). The
// ports are copied.
func (b *Builder) Add(s Spec, ports ...uint16) {
	if len(ports) > math.MaxUint8 || uint64(len(b.ports)+len(ports)) > math.MaxUint32 {
		panic(fmt.Sprintf("attacksim: %d ports past the %d already added", len(ports), len(b.ports)))
	}
	s.ports, s.nports = uint32(len(b.ports)), uint8(len(ports))
	b.ports = append(b.ports, ports...)
	b.specs = append(b.specs, s)
}

// Schedule returns the schedule of the components added and empties the
// builder, which hands the schedule its arrays. The components are ordered
// by (Start, order added), and a GroupID left zero takes the component's
// position in that order plus one. The order is found on the positions,
// not the components, and then applied in place one cycle at a time,
// through one component of scratch, so each component moves once.
func (b *Builder) Schedule() *Schedule {
	specs := b.specs
	order := make([]int32, len(specs))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		return cmp.Or(cmp.Compare(specs[a].Start, specs[b].Start), cmp.Compare(a, b))
	})
	// position k takes the component added at order[k]; a placed
	// position's entry is set to -1
	for k := range order {
		if order[k] < 0 {
			continue
		}
		tmp := specs[k]
		j := k
		for {
			i := int(order[j])
			order[j] = -1
			if i == k {
				specs[j] = tmp
				break
			}
			specs[j] = specs[i]
			j = i
		}
	}
	for i := range specs {
		if specs[i].GroupID == 0 {
			specs[i].GroupID = int32(i + 1)
		}
	}
	sc := &Schedule{specs: specs, ports: b.ports}
	*b = Builder{}
	return sc
}

// Specs returns all specs in start order (shared slice; read-only).
func (sc *Schedule) Specs() []Spec { return sc.specs }

// Ports returns the destination ports s, one of the schedule's specs,
// targets (shared slice; read-only).
func (sc *Schedule) Ports(s *Spec) []uint16 {
	return sc.ports[s.ports : s.ports+uint32(s.nports) : s.ports+uint32(s.nports)]
}

// Len returns the number of attack components.
func (sc *Schedule) Len() int { return len(sc.specs) }
