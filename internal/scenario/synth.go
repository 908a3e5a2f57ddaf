package scenario

import (
	"math"
	"math/rand/v2"
	"slices"

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
// same process lives in attacksim.Flood + backscatter + the telescope's
// darknet filter (Contains), and rsdos's TestPacketPathMatchesFlowPath
// holds the two paths to the same per-window statistics.

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

// Synthesize generates the telescope's per-(victim, window) backscatter
// observations for every randomly spoofed attack in the schedule, handing
// each to emit in feed order. The observation and its Ports are valid only
// for the duration of the call: every one is drawn into the same buffers.
//
// A non-nil advance is handed, before each component after the first, the
// first window no later observation can lie below: the schedule is in
// start order, so the components still to come start no earlier than
// that component.
func Synthesize(cfg SynthConfig, w *World, sched *attacksim.Schedule, tel *telescope.Telescope, emit func(*rsdos.WindowObs), advance func(clock.Window)) {
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x0b5))
	specs := sched.Specs()
	var ports []rsdos.PortCount
	var o rsdos.WindowObs // emit's argument: one escape, not one per window
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
		startW := clock.WindowOf(s.Start)
		if advance != nil && i > 0 {
			advance(startW)
		}
		if s.Vector != attacksim.VectorRandomSpoofed {
			continue
		}
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
		// distinct darknet destinations saturate at the spoofed-source
		// pool's darknet share
		pool := float64(uint64(1) << 32)
		if s.SpoofedSources > 0 {
			pool = float64(s.SpoofedSources)
		}
		darknet := pool * tel.Fraction()
		logMiss := math.Log1p(-1 / darknet)
		endW := clock.WindowOf(s.End.Add(-1))
		ports = slices.Grow(ports[:0], len(s.Ports))
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
			if o = synthesizeWindow(rng, tel, s, darknet, logMiss, wdw, lambda, ports); o.Packets > 0 {
				emit(&o)
			}
		}
	}
}

// SynthesizeObs returns Synthesize's feed as one slice, every
// observation's Ports its own.
func SynthesizeObs(cfg SynthConfig, w *World, sched *attacksim.Schedule, tel *telescope.Telescope) []rsdos.WindowObs {
	var feed []rsdos.WindowObs
	Synthesize(cfg, w, sched, tel, func(o *rsdos.WindowObs) {
		c := *o
		c.Ports = slices.Clip(slices.Clone(o.Ports))
		feed = append(feed, c)
	}, nil)
	return feed
}

// synthesizeWindow draws one observation from the thinned backscatter
// process with expected telescope packet count lambda. The observation's
// port counts are written into ports, an empty slice with room for
// len(s.Ports) of them, and returned clamped. darknet is the component's
// spoofed-source pool as the telescope sees it, logMiss log(1 - 1/darknet).
func synthesizeWindow(rng *rand.Rand, tel *telescope.Telescope, s *attacksim.Spec, darknet, logMiss float64, w clock.Window, lambda float64, ports []rsdos.PortCount) rsdos.WindowObs {
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
	o.UniqueDsts = int64(darknet * (1 - math.Exp(float64(pk)*logMiss)))
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
