package scenario

import (
	"math"
	"math/rand/v2"

	"dnsddos/internal/attacksim"
	"dnsddos/internal/clock"
	"dnsddos/internal/netx"
	"dnsddos/internal/rsdos"
	"dnsddos/internal/stats"
	"dnsddos/internal/telescope"
)

// synth.go converts an attack schedule into the telescope's window
// observations at flow level: the exact thinning of the backscatter process
// (Binomial/Poisson sampling of victim responses into the darknet),
// without materializing individual packets. Packet-level fidelity for the
// same process lives in attacksim.Flood + backscatter + telescope.Capture
// and is cross-validated against this path by tests.

// SynthConfig tunes the synthesizer.
type SynthConfig struct {
	Seed uint64
	// DefaultVictimCapacity is the response capacity assumed for
	// non-nameserver victims (nameservers use their dnsdb capacity).
	// Saturated victims answer only capacity/load of attack packets —
	// the §6.5 self-suppression of strong attacks' backscatter.
	DefaultVictimCapacity float64
	// NSRespCapacityFactor scales a nameserver's serving capacity into
	// its raw response capacity: emitting a SYN-ACK or RST is much
	// cheaper than resolving a query, so backscatter keeps flowing well
	// past the point where resolution quality degrades.
	NSRespCapacityFactor float64
}

// DefaultSynthConfig returns standard settings.
func DefaultSynthConfig() SynthConfig {
	return SynthConfig{Seed: 99, DefaultVictimCapacity: 2e5, NSRespCapacityFactor: 20}
}

// SynthesizeObs generates the telescope's per-(victim, window) backscatter
// observations for every randomly spoofed attack in the schedule.
//
// The feed is two allocations: the schedule bounds both the observations
// (one per window of a spoofed component) and their port counts (one per
// listed port of each), so the observation array and one port-count slab
// are made at those sizes and every observation's Ports is cut from the
// slab, its capacity clamped to its length.
func SynthesizeObs(cfg SynthConfig, w *World, sched *attacksim.Schedule, tel *telescope.Telescope) []rsdos.WindowObs {
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x0b5))
	specs := sched.Specs()
	var maxObs, maxPorts int
	for i := range specs {
		if s := &specs[i]; s.Vector == attacksim.VectorRandomSpoofed {
			if n := int(clock.WindowOf(s.End.Add(-1))-clock.WindowOf(s.Start)) + 1; n > 0 {
				maxObs += n
				maxPorts += n * len(s.Ports)
			}
		}
	}
	out := make([]rsdos.WindowObs, 0, maxObs)
	slab := make([]rsdos.PortCount, 0, maxPorts)
	// chain the components of each victim by schedule position, so a
	// window's total load is O(components on that victim), not
	// O(schedule): first holds a victim's earliest component, next the one
	// after each (-1 ends the chain)
	first := make(map[netx.Addr]int32, len(specs))
	next := make([]int32, len(specs))
	for i := len(specs) - 1; i >= 0; i-- {
		next[i] = -1
		if j, ok := first[specs[i].Target]; ok {
			next[i] = j
		}
		first[specs[i].Target] = int32(i)
	}
	// A chain is in start order and so is this walk, so a window's sum can
	// skip what adds exactly +0.0: the chain's dead prefix (components that
	// end by the start of the current component's first window, dropped for
	// good), and everything from the first component starting at or after
	// the window's end.
	for i := range specs {
		s := &specs[i]
		if s.Vector != attacksim.VectorRandomSpoofed {
			continue
		}
		startW := clock.WindowOf(s.Start)
		head := first[s.Target]
		onVictim := head
		for onVictim >= 0 && specs[onVictim].End.UnixNano() <= startW.UnixNano() {
			onVictim = next[onVictim]
		}
		if onVictim != head {
			first[s.Target] = onVictim
		}
		cap := cfg.DefaultVictimCapacity
		if ns, ok := w.DB.NameserverByAddr(s.Target); ok {
			cap = ns.CapacityPPS * float64(ns.Sites) * cfg.NSRespCapacityFactor
		} else {
			// non-NS victims get a deterministic per-host capacity
			cap = victimCapacity(s.Target, cfg.DefaultVictimCapacity)
		}
		endW := clock.WindowOf(s.End.Add(-1))
		for wdw := startW; wdw <= endW; wdw++ {
			load := s.WindowLoad(wdw)
			if load <= 0 {
				continue
			}
			var total float64
			we := (wdw + 1).UnixNano()
			for j := onVictim; j >= 0 && specs[j].Start.UnixNano() < we; j = next[j] {
				total += specs[j].WindowLoad(wdw)
			}
			respRate := 1.0
			if total > cap {
				respRate = cap / total
			}
			responses := load * respRate * clock.WindowDur.Seconds()
			lambda := responses * tel.Fraction()
			o := synthesizeWindow(rng, tel, s, wdw, lambda, slab[len(slab):])
			if o.Packets > 0 {
				out = append(out, o)
				slab = slab[:len(slab)+len(o.Ports)]
			}
		}
	}
	return out
}

// synthesizeWindow draws one observation from the thinned backscatter
// process with expected telescope packet count lambda. The observation's
// port counts are written into ports, an empty slice with room for
// len(s.Ports) of them, and returned clamped.
func synthesizeWindow(rng *rand.Rand, tel *telescope.Telescope, s *attacksim.Spec, w clock.Window, lambda float64, ports []rsdos.PortCount) rsdos.WindowObs {
	pk := stats.Poisson(rng, lambda)
	o := rsdos.WindowObs{
		Window:  w,
		Victim:  s.Target,
		Packets: pk,
		Proto:   s.Proto,
	}
	if pk == 0 {
		return o
	}
	// split the window's packets over its five minutes (multinomial via
	// sequential binomial splits) and take the peak
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
	// /16 spread: expected coupon-collector coverage with ±1 noise
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
	// distinct darknet destinations (birthday-corrected). An attacker
	// cycling a bounded spoofed-source pool saturates at the pool's
	// darknet share — the Table 2 "attacker IP count" signal.
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
	// attacked-port attribution
	if len(s.Ports) > 0 {
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
				ports = rsdos.AddPort(ports, p, c)
			}
		}
		o.Ports = ports[:len(ports):len(ports)]
	}
	return o
}

// victimCapacity derives a deterministic pseudo-random capacity for a
// non-nameserver victim from its address.
func victimCapacity(a netx.Addr, base float64) float64 {
	h := uint32(a) * 2654435761
	// spread capacities over roughly one order of magnitude around base
	f := 0.3 + float64(h%1000)/1000*3.0
	return base * f
}
