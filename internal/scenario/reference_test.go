package scenario

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"time"

	"dnsddos/internal/attacksim"
	"dnsddos/internal/clock"
	"dnsddos/internal/netx"
	"dnsddos/internal/packet"
	"dnsddos/internal/rsdos"
	"dnsddos/internal/stats"
	"dnsddos/internal/telescope"
)

// reference_test.go keeps the synthesizer as it was before the slab and
// the emitter: a port map made per window, specs copied by value into a
// per-victim index, the feed grown by append. Synthesize must draw the same
// feed — same rng draws in the same order — with every port map read back
// as an ascending list; SynthesizeObs collects it.

// portN is the count a port list holds for port (0 when absent).
func portN(ports []rsdos.PortCount, port uint16) int64 {
	for _, pc := range ports {
		if pc.Port == port {
			return pc.N
		}
	}
	return 0
}

// refObs is an observation with the port map it used to carry.
type refObs struct {
	rsdos.WindowObs
	ports map[uint16]int64
}

func synthesizeObsReference(cfg SynthConfig, w *World, sched *attacksim.Schedule, tel *telescope.Telescope) []rsdos.WindowObs {
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x0b5))
	var out []rsdos.WindowObs
	byTarget := make(map[netx.Addr][]attacksim.Spec)
	for _, s := range sched.Specs() {
		byTarget[s.Target] = append(byTarget[s.Target], s)
	}
	victimLoad := func(target netx.Addr, w clock.Window) float64 {
		var sum float64
		for _, s := range byTarget[target] {
			sum += s.WindowLoad(w)
		}
		return sum
	}
	for _, s := range sched.Specs() {
		if s.Vector != attacksim.VectorRandomSpoofed {
			continue
		}
		cap := cfg.DefaultVictimCapacity
		if ns, ok := w.DB.NameserverByAddr(s.Target); ok {
			cap = ns.CapacityPPS * float64(ns.Sites) * cfg.NSRespCapacityFactor
		} else {
			cap = victimCapacity(s.Target, cfg.DefaultVictimCapacity)
		}
		startW := clock.WindowOf(s.Start)
		endW := clock.WindowOf(s.End.Add(-1))
		for wdw := startW; wdw <= endW; wdw++ {
			load := s.WindowLoad(wdw)
			if load <= 0 {
				continue
			}
			total := victimLoad(s.Target, wdw)
			respRate := 1.0
			if total > cap {
				respRate = cap / total
			}
			responses := load * respRate * clock.WindowDur.Seconds()
			lambda := responses * tel.Fraction()
			o := synthesizeWindowReference(rng, tel, s, wdw, lambda)
			if o.Packets > 0 {
				// the map, read back port-ascending
				for _, p := range sortedKeys(o.ports) {
					o.Ports = append(o.Ports, rsdos.PortCount{Port: p, N: o.ports[p]})
				}
				out = append(out, o.WindowObs)
			}
		}
	}
	return out
}

func sortedKeys(m map[uint16]int64) []uint16 {
	keys := make([]uint16, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func synthesizeWindowReference(rng *rand.Rand, tel *telescope.Telescope, s attacksim.Spec, w clock.Window, lambda float64) refObs {
	pk := stats.Poisson(rng, lambda)
	o := refObs{WindowObs: rsdos.WindowObs{
		Window:  w,
		Victim:  s.Target,
		Packets: pk,
		Proto:   s.Proto,
	}}
	if pk == 0 {
		return o
	}
	remaining := pk
	var peak int64
	for i := 0; i < 5; i++ {
		share := 1.0 / float64(5-i)
		var c int64
		if i == 4 {
			c = remaining
		} else {
			c = stats.Binomial(rng, remaining, share)
		}
		remaining -= c
		if c > peak {
			peak = c
		}
	}
	o.PeakPPM = float64(peak)
	spread := tel.ExpectedSlash16Spread(pk)
	if spread > 1 && rng.Float64() < 0.5 {
		spread += rng.IntN(3) - 1
	}
	if spread < 1 {
		spread = 1
	}
	if spread > tel.NumSlash16() {
		spread = tel.NumSlash16()
	}
	o.Slash16 = spread
	pool := float64(uint64(1) << 32)
	if s.SpoofedSources > 0 {
		pool = float64(s.SpoofedSources)
	}
	darknet := pool * tel.Fraction()
	o.UniqueDsts = int64(darknet * (1 - math.Exp(float64(pk)*math.Log1p(-1/darknet))))
	if o.UniqueDsts > pk {
		o.UniqueDsts = pk
	}
	if o.UniqueDsts == 0 {
		o.UniqueDsts = 1
	}
	if len(s.Ports) > 0 {
		o.ports = make(map[uint16]int64, len(s.Ports))
		rem := pk
		for i, p := range s.Ports {
			var c int64
			if i == len(s.Ports)-1 {
				c = rem
			} else {
				c = stats.Binomial(rng, rem, 1.0/float64(len(s.Ports)-i))
			}
			rem -= c
			if c > 0 {
				o.ports[p] += c
			}
		}
	}
	return o
}

// tieSchedule is a hand-built schedule of everything the generated ones
// rarely hold: a port listed twice, an ICMP flood, two spoofed components
// overlapping on one victim (so two observations share a window), a
// reflection component that loads the victim without being observed, a
// saturated nameserver, seven ports on a trickle (ports drawing zero), a
// component too weak to reach the telescope in most windows, and two
// saturated victims whose first component ends inside the second's first
// window — before and after the second starts — so the walk's dead prefix
// must keep it for that window.
func tieSchedule(w *World) *attacksim.Schedule {
	ns := w.DB.Nameservers[groupNS(w, "TransIP")[0]].Addr
	host := netx.MustParseAddr("120.3.2.1")
	t0 := clock.StudyStart.Add(40*24*time.Hour + 90*time.Second)
	spoofed := func(target netx.Addr, proto packet.Protocol, ports []uint16, after, dur time.Duration, pps float64) attacksim.Spec {
		return attacksim.Spec{Target: target, Vector: attacksim.VectorRandomSpoofed, Proto: proto, Ports: ports,
			Start: t0.Add(after), End: t0.Add(after + dur), PPS: pps}
	}
	specs := []attacksim.Spec{
		spoofed(host, packet.ProtoTCP, []uint16{80, 443, 80}, 0, time.Hour, 20000),
		spoofed(host, packet.ProtoUDP, []uint16{53}, 20*time.Minute, time.Hour, 9000),
		spoofed(host, packet.ProtoICMP, nil, 3*time.Hour, 40*time.Minute, 15000),
		spoofed(ns, packet.ProtoTCP, []uint16{53, 80}, 10*time.Minute, 2*time.Hour, 5e6),
		spoofed(ns, packet.ProtoUDP, []uint16{53}, 30*time.Minute, time.Hour, 2e6),
		spoofed(netx.MustParseAddr("120.9.9.9"), packet.ProtoUDP, []uint16{7, 19, 53, 123, 161, 389, 1900}, 0, 3*time.Hour, 40),
		spoofed(netx.MustParseAddr("120.9.9.10"), packet.ProtoTCP, []uint16{22}, 0, 6*time.Hour, 0.5),
		spoofed(netx.MustParseAddr("120.3.2.2"), packet.ProtoTCP, []uint16{80}, 0, 4*time.Minute+30*time.Second, 4e5),
		spoofed(netx.MustParseAddr("120.3.2.2"), packet.ProtoUDP, []uint16{53}, 6*time.Minute, 30*time.Minute, 3e5),
		spoofed(netx.MustParseAddr("120.3.2.3"), packet.ProtoTCP, []uint16{80}, 0, 7*time.Minute, 4e5),
		spoofed(netx.MustParseAddr("120.3.2.3"), packet.ProtoUDP, []uint16{53}, 6*time.Minute, 30*time.Minute, 3e5),
	}
	reflection := spoofed(host, packet.ProtoUDP, []uint16{53}, 0, 2*time.Hour, 4e5)
	reflection.Vector = attacksim.VectorReflection
	specs = append(specs, reflection)
	return attacksim.NewSchedule(specs)
}

func TestSynthesizeObsMatchesReference(t *testing.T) {
	w := smallWorld(t)
	tel := telescope.NewUCSD()
	type feed struct {
		name  string
		cfg   SynthConfig
		sched *attacksim.Schedule
	}
	feeds := []feed{{"hand-built ties", DefaultSynthConfig(), tieSchedule(w)}}
	for seed := uint64(1); seed <= 5; seed++ {
		cfg := DefaultAttackConfig()
		cfg.Seed = seed
		cfg.TotalAttacks = 400
		cfg.IncludeCaseStudies = seed%2 == 1
		feeds = append(feeds, feed{fmt.Sprintf("generated, seed %d", seed), DefaultSynthConfig(), GenerateSchedule(cfg, w).Sched})
	}
	// join_dense's DNS share: long per-victim chains, whose walk stops at
	// the first component starting at or after the window's end and drops
	// the components that ended before the current one's first window. A
	// window's total only reaches the feed through a saturated victim's
	// response rate, so the chains are also drawn with capacities most
	// floods saturate.
	dense := DefaultAttackConfig()
	dense.TotalAttacks, dense.DNSShare = 3000, 0.15
	denseSched := GenerateSchedule(dense, w).Sched
	saturated := DefaultSynthConfig()
	saturated.DefaultVictimCapacity, saturated.NSRespCapacityFactor = 2000, 0.01
	feeds = append(feeds, feed{"dense, DNS share 0.15", DefaultSynthConfig(), denseSched},
		feed{"dense, DNS share 0.15, saturated", saturated, denseSched})
	perVictim, longest := make(map[netx.Addr]int), 0
	for _, s := range denseSched.Specs() {
		perVictim[s.Target]++
		longest = max(longest, perVictim[s.Target])
	}
	if longest < 50 {
		t.Fatalf("dense schedule: the longest victim chain has %d components, want ≥ 50", longest)
	}
	for _, f := range feeds {
		got := SynthesizeObs(f.cfg, w, f.sched, tel)
		want := synthesizeObsReference(f.cfg, w, f.sched, tel)
		if len(want) == 0 {
			t.Fatalf("%s: the reference synthesized nothing", f.name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: feed differs from the reference (%d vs %d observations)", f.name, len(got), len(want))
			for i := range min(len(got), len(want)) {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Logf("first difference at %d:\n got %+v\nwant %+v", i, got[i], want[i])
					break
				}
			}
		}
		// an observation's list is its own: Synthesize draws every list
		// into one buffer, which SynthesizeObs copies out, clamped
		for i := range got {
			if cap(got[i].Ports) != len(got[i].Ports) {
				t.Fatalf("%s: observation %d has room for %d port counts and holds %d", f.name, i, cap(got[i].Ports), len(got[i].Ports))
			}
		}
	}
}

// BenchmarkSynthesizeObs draws the repo benchmark's feeds (attack seed 7)
// through Synthesize, each observation counted and dropped:
// study_batch's, 6 000 scheduled attacks on a 12 000-domain world, and
// join_dense's, 20 000 attacks at a DNS share of 0.15 on 6 000 domains,
// whose per-victim chains are long (make bench-session).
func BenchmarkSynthesizeObs(b *testing.B) {
	for _, c := range []struct {
		name             string
		domains, attacks int
		dnsShare         float64
	}{{"study", 12000, 6000, DefaultAttackConfig().DNSShare}, {"dense", 6000, 20000, 0.15}} {
		b.Run(c.name, func(b *testing.B) {
			wcfg := DefaultWorldConfig()
			wcfg.Domains = c.domains
			wcfg.GenericProviders = 60
			w := GenerateWorld(wcfg)
			acfg := DefaultAttackConfig()
			acfg.Seed = 7
			acfg.TotalAttacks, acfg.DNSShare = c.attacks, c.dnsShare
			sched := GenerateSchedule(acfg, w).Sched
			tel := telescope.NewUCSD()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := 0
				Synthesize(DefaultSynthConfig(), w, sched, tel, func(*rsdos.WindowObs) { n++ }, nil)
				if n == 0 {
					b.Fatal("no observation synthesized")
				}
			}
		})
	}
}
