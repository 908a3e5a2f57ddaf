package rsdos_test

import (
	"cmp"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"dnsddos/internal/attacksim"
	"dnsddos/internal/clock"
	"dnsddos/internal/dnsdb"
	"dnsddos/internal/netx"
	"dnsddos/internal/packet"
	"dnsddos/internal/rsdos"
	"dnsddos/internal/scenario"
	"dnsddos/internal/telescope"
)

// oracle_test.go is the packet-level model of the telescope, kept as the
// oracle the flow-level synthesizer (scenario.Synthesize) is held to: an
// attack component floods its victim with spoofed packets, the victim
// answers each one to its spoofed source, the telescope captures the
// answers that land in the darknet, and the captures are aggregated into
// the feed's window observations. It works on capture tuples, not packet
// headers: a backscatter packet's type names the attacked protocol and
// port (a SYN-ACK or RST from the attacked TCP port, an ICMP
// port-unreachable quoting the attacked UDP port, an echo reply for an
// ICMP flood), so a capture carries them directly.

// capture is one backscatter packet the telescope captured.
type capture struct {
	ts time.Time
	// victim answered, so it is the packet's source; dst is the spoofed
	// source the answer went to, a darknet address
	victim, dst netx.Addr
	proto       packet.Protocol
	port        uint16 // the attacked port (0: none)
}

// splitmix is the splitmix64 finalizer.
func splitmix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// spoofedSource draws one attack packet's source: uniform over IPv4, or,
// for a component cycling a pool of SpoofedSources, one of the pool,
// whose i-th member is drawn uniformly over IPv4 by a hash of (GroupID, i).
func spoofedSource(rng *rand.Rand, s *attacksim.Spec) netx.Addr {
	if s.SpoofedSources <= 0 {
		return netx.RandomGlobalAddr(rng)
	}
	i := uint64(rng.IntN(int(s.SpoofedSources)))
	return netx.Addr(splitmix(uint64(uint32(s.GroupID))<<32 | i))
}

// flood captures the backscatter of component s, which targets ports, in
// window w: the window's attack packets, sampled at rate (1: every
// packet), are spread uniformly over the part of the window the component
// covers, each with a spoofed source, and the victim answers each within
// a millisecond. Only a randomly spoofed component's answers reach the
// darknet.
func flood(rng *rand.Rand, tel *telescope.Telescope, s *attacksim.Spec, ports []uint16, w clock.Window, rate float64, captured func(capture)) {
	frac, ok := s.ActiveIn(w)
	if !ok || s.Vector != attacksim.VectorRandomSpoofed {
		return
	}
	from := max(w.UnixNano(), s.Start)
	span := frac * float64(clock.WindowDur)
	for n := int64(s.PPS * frac * clock.WindowDur.Seconds() * rate); n > 0; n-- {
		src := spoofedSource(rng, s)
		sent := from + int64(rng.Float64()*span)
		var port uint16
		if len(ports) > 0 && s.Proto != packet.ProtoICMP {
			port = ports[rng.IntN(len(ports))]
		}
		ts := time.Unix(0, sent+rng.Int64N(int64(time.Millisecond))).UTC()
		if tel.Contains(src) {
			captured(capture{ts: ts, victim: s.Target, dst: src, proto: s.Proto, port: port})
		}
	}
}

// aggregate builds the window observations of the captures, ordered by
// (Window, Victim): the packets, the busiest minute's count, the
// telescope /16s and darknet addresses reached, the protocol with the
// most packets (the lowest on a tie) and the packets per attacked port.
func aggregate(tel *telescope.Telescope, caps []capture) []rsdos.WindowObs {
	type key struct {
		w clock.Window
		v netx.Addr
	}
	type state struct {
		minutes [5]int64
		slash16 map[int]bool
		dsts    map[netx.Addr]bool
		protos  map[packet.Protocol]int64
		o       rsdos.WindowObs
	}
	states := map[key]*state{}
	for _, c := range caps {
		k := key{clock.WindowOf(c.ts), c.victim}
		st := states[k]
		if st == nil {
			st = &state{slash16: map[int]bool{}, dsts: map[netx.Addr]bool{}, protos: map[packet.Protocol]int64{},
				o: rsdos.WindowObs{Window: k.w, Victim: k.v}}
			states[k] = st
		}
		st.o.Packets++
		st.minutes[min(max(int(c.ts.Sub(k.w.Start())/time.Minute), 0), 4)]++
		st.slash16[tel.Slash16Index(c.dst)] = true
		st.dsts[c.dst] = true
		st.protos[c.proto]++
		if c.port != 0 {
			st.o.Ports = rsdos.AddPort(st.o.Ports, c.port, 1)
		}
	}
	out := make([]rsdos.WindowObs, 0, len(states))
	for _, st := range states {
		o := st.o
		o.PeakPPM = float64(slices.Max(st.minutes[:]))
		o.Slash16, o.UniqueDsts = len(st.slash16), int64(len(st.dsts))
		var best int64 = -1
		for p, n := range st.protos {
			if n > best || (n == best && p < o.Proto) {
				o.Proto, best = p, n
			}
		}
		out = append(out, o)
	}
	slices.SortFunc(out, func(a, b rsdos.WindowObs) int {
		return cmp.Or(cmp.Compare(a.Window, b.Window), cmp.Compare(a.Victim, b.Victim))
	})
	return out
}

// portCount is the count a port list holds for port (0 when absent).
func portCount(ports []rsdos.PortCount, port uint16) int64 {
	for _, pc := range ports {
		if pc.Port == port {
			return pc.N
		}
	}
	return 0
}

func tcpCapture(victim, dst string, ts time.Time, port uint16) capture {
	return capture{ts: ts, victim: netx.MustParseAddr(victim), dst: netx.MustParseAddr(dst), proto: packet.ProtoTCP, port: port}
}

func TestPacketAggregatorBasics(t *testing.T) {
	tel := telescope.NewUCSD()
	base := clock.StudyStart
	// two victims in one window, one victim spanning two windows
	obs := aggregate(tel, []capture{
		tcpCapture("192.0.2.1", "44.0.0.1", base.Add(10*time.Second), 53),
		tcpCapture("198.51.100.1", "44.2.0.1", base.Add(30*time.Second), 80),
		tcpCapture("192.0.2.1", "44.3.0.1", base.Add(6*time.Minute), 53),
		tcpCapture("192.0.2.1", "44.1.0.1", base.Add(20*time.Second), 53),
	})
	if len(obs) != 3 {
		t.Fatalf("observations = %d, want 3", len(obs))
	}
	// window order, victim order within window
	if obs[0].Window != 0 || obs[1].Window != 0 || obs[2].Window != 1 {
		t.Errorf("window order: %v %v %v", obs[0].Window, obs[1].Window, obs[2].Window)
	}
	first := obs[0]
	if first.Victim != netx.MustParseAddr("192.0.2.1") || first.Packets != 2 {
		t.Errorf("first obs = %+v", first)
	}
	if first.Slash16 != 2 || first.UniqueDsts != 2 {
		t.Errorf("spread = %d, dsts = %d", first.Slash16, first.UniqueDsts)
	}
	if first.Proto != packet.ProtoTCP || portCount(first.Ports, 53) != 2 {
		t.Errorf("attribution = %v %v", first.Proto, first.Ports)
	}
}

func TestPacketAggregatorPeakPPM(t *testing.T) {
	tel := telescope.NewUCSD()
	base := clock.StudyStart
	// 10 packets in minute 0, 30 in minute 3
	var caps []capture
	for i := 0; i < 10; i++ {
		caps = append(caps, tcpCapture("192.0.2.1", "44.0.0.1", base.Add(time.Duration(i)*time.Second), 53))
	}
	for i := 0; i < 30; i++ {
		caps = append(caps, tcpCapture("192.0.2.1", "44.0.0.1", base.Add(3*time.Minute+time.Duration(i)*time.Second), 53))
	}
	if obs := aggregate(tel, caps); len(obs) != 1 || obs[0].PeakPPM != 30 {
		t.Errorf("peak ppm = %+v", obs)
	}
}

// TestPacketPathMatchesFlowPath is the cross-validation between the two
// fidelity levels: one five-minute attack captured packet by packet
// (flood → answer → telescope → aggregate) must give the observation the
// flow-level synthesizer draws for it, up to the noise of both draws.
//
// With uniform spoofing the packets, /16 spread and darknet destinations
// agree, and the inference calls the packet path's window one attack.
// With a bounded pool of spoofed sources the telescope sees only the
// pool's members that lie in the darknet — about pool/341 of them, a
// binomial draw the packet path makes once per component — so the
// destinations agree within that draw's noise, and the packets per
// destination within the flow path's whole-number destination count and
// Poisson noise. The bounded pool's /16 spread is not compared: the flow
// path draws it from the packet count alone, not capped at its
// destination count, so it reports ≈ 192 /16s from ≈ 15 destinations;
// capping it there moves the study's output bytes and is a change of its
// own.
func TestPacketPathMatchesFlowPath(t *testing.T) {
	tel := telescope.NewUCSD()
	f := tel.Fraction()
	victim := netx.MustParseAddr("192.0.2.53")
	for _, tc := range []struct {
		name string
		pps  float64
		pool int32
	}{
		{"uniform", 2000, 0},
		{"bounded pool", 20000, 5000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var b attacksim.Builder
			b.Add(attacksim.Spec{
				Target: victim, Vector: attacksim.VectorRandomSpoofed, Proto: packet.ProtoTCP,
				Start: clock.StudyStart.UnixNano(), End: clock.StudyStart.Add(5 * time.Minute).UnixNano(),
				PPS: tc.pps, SpoofedSources: tc.pool,
			}, 53)
			sched := b.Schedule()
			spec := &sched.Specs()[0]
			var caps []capture
			flood(rand.New(rand.NewPCG(42, 42)), tel, spec, sched.Ports(spec), 0, 1, func(c capture) { caps = append(caps, c) })
			// an answer can land a millisecond into the next window:
			// compare the attack's own window
			pkt := aggregate(tel, caps)
			if len(pkt) == 0 || pkt[0].Window != 0 {
				t.Fatalf("the packet path observed %d windows, none of them the attack's", len(pkt))
			}
			var flow []rsdos.WindowObs
			scenario.Synthesize(scenario.DefaultSynthConfig(), &scenario.World{DB: dnsdb.New()}, sched, tel, func(o *rsdos.WindowObs) {
				flow = append(flow, *o)
			}, nil)
			if len(flow) != 1 {
				t.Fatalf("the flow path observed %d windows, want 1", len(flow))
			}
			p, fl := pkt[0], flow[0]
			if p.Victim != victim || p.Proto != packet.ProtoTCP || portCount(p.Ports, 53) != p.Packets {
				t.Errorf("attribution: %+v", p)
			}
			// expected telescope packets: pps × 300 s × fraction
			lambda := tc.pps * 300 * f
			if tc.pool == 0 {
				for _, o := range []rsdos.WindowObs{p, fl} {
					if math.Abs(float64(o.Packets)-lambda) > 6*math.Sqrt(lambda) {
						t.Errorf("%d telescope packets, want ≈ %.0f", o.Packets, lambda)
					}
					if math.Abs(float64(o.UniqueDsts-o.Packets)) > 3 {
						t.Errorf("%d darknet destinations from %d packets of uniform spoofing", o.UniqueDsts, o.Packets)
					}
				}
				if d := p.Slash16 - fl.Slash16; d < -8 || d > 8 {
					t.Errorf("/16 spread: packet path %d, flow path %d", p.Slash16, fl.Slash16)
				}
				attacks := rsdos.Infer(rsdos.DefaultConfig(), pkt)
				if len(attacks) != 1 || attacks[0].Victim != victim || attacks[0].FirstPort != 53 {
					t.Errorf("inferred %+v, want one attack on %v's port 53", attacks, victim)
				}
				return
			}
			members := float64(tc.pool) * f
			if d := math.Abs(float64(p.UniqueDsts - fl.UniqueDsts)); d > 4*math.Sqrt(members)+1 {
				t.Errorf("darknet destinations: packet path %d, flow path %d, pool %d expects ≈ %.1f", p.UniqueDsts, fl.UniqueDsts, tc.pool, members)
			}
			pPer, fPer := float64(p.Packets)/float64(p.UniqueDsts), float64(fl.Packets)/float64(fl.UniqueDsts)
			if tol := 1/float64(fl.UniqueDsts) + 4/math.Sqrt(float64(fl.Packets)); math.Abs(pPer/fPer-1) > tol {
				t.Errorf("packets per darknet destination: packet path %.1f (%d/%d), flow path %.1f (%d/%d), want within %.1f%%",
					pPer, p.Packets, p.UniqueDsts, fPer, fl.Packets, fl.UniqueDsts, 100*tol)
			}
		})
	}
}
