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
	// O(schedule)
	links := victimChains(specs)
	// A chain is in start order and so is this walk, so a window's sum can
	// skip what adds exactly +0.0: the chain's dead prefix (components that
	// end by the start of the current component's first window, dropped for
	// good), and everything from the first component starting at or after
	// the window's end. The victim's live head, past its dead prefix, is
	// carried along the chain to the victim's next component.
	for i := range specs {
		s := &specs[i]
		startW := clock.WindowOfUnixNano(s.Start)
		if advance != nil && i > 0 {
			advance(startW)
		}
		onVictim, next := uint32(links[i]), uint32(links[i]>>32)
		spoofed := s.Vector == attacksim.VectorRandomSpoofed
		for spoofed && onVictim != endOfChain && specs[onVictim].End <= startW.UnixNano() {
			onVictim = uint32(links[onVictim] >> 32)
		}
		if next != endOfChain {
			links[next] = links[next]&^math.MaxUint32 | uint64(onVictim)
		}
		if !spoofed {
			continue
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
		endW := clock.WindowOfUnixNano(s.End - 1)
		targeted := sched.Ports(s)
		ports = slices.Grow(ports[:0], len(targeted))
		for wdw := startW; wdw <= endW; wdw++ {
			load := s.WindowLoad(wdw)
			if load <= 0 {
				continue
			}
			var total float64
			we := (wdw + 1).UnixNano()
			for j := onVictim; j != endOfChain && specs[j].Start < we; j = uint32(links[j] >> 32) {
				total += specs[j].WindowLoad(wdw)
			}
			respRate := 1.0
			if total > cap {
				respRate = cap / total
			}
			responses := load * respRate * clock.WindowDur.Seconds()
			lambda := responses * tel.Fraction()
			if o = synthesizeWindow(rng, tel, s, targeted, darknet, logMiss, wdw, lambda, ports); o.Packets > 0 {
				emit(&o)
			}
		}
	}
}

// synthesizeWindow draws one observation from the thinned backscatter
// process with expected telescope packet count lambda. The observation's
// port counts, over targeted, the component's ports, are written into
// ports, an empty slice with room for len(targeted) of them, and returned
// clamped. darknet is the component's spoofed-source pool as the
// telescope sees it, logMiss log(1 - 1/darknet).
func synthesizeWindow(rng *rand.Rand, tel *telescope.Telescope, s *attacksim.Spec, targeted []uint16, darknet, logMiss float64, w clock.Window, lambda float64, ports []rsdos.PortCount) rsdos.WindowObs {
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
	if len(targeted) > 0 {
		rem := pk
		for i, p := range targeted {
			var c int64
			if i == len(targeted)-1 {
				c = rem
			} else {
				c = stats.Binomial(rng, rem, 1.0/float64(len(targeted)-i))
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

// endOfChain ends a victim's chain in victimChains' words.
const endOfChain = math.MaxUint32

// victimChains links the components of each victim in schedule order
// without a map the size of the schedule. Word i's high half is the
// position of the next component on i's victim, endOfChain after the
// last; its low half starts out as i, the head Synthesize carries along
// the chain. The (Target, position) pairs, one packed to a word in
// position order, are sorted by Target, stably, radixBits at a pass,
// which puts each victim's components side by side in position order;
// each pair is then written, its successor's position above it, to the
// position it names, in the array the passes are done with.
func victimChains(specs []attacksim.Spec) []uint64 {
	keys, spare := make([]uint64, len(specs)), make([]uint64, len(specs))
	for i := range specs {
		keys[i] = uint64(specs[i].Target)<<32 | uint64(i)
	}
	const digit = 1<<radixBits - 1
	for shift := 32; shift < 64; shift += radixBits {
		var start [digit + 1]int
		for _, k := range keys {
			start[k>>shift&digit]++
		}
		sum := 0
		for d, n := range start {
			start[d], sum = sum, sum+n
		}
		for _, k := range keys {
			spare[start[k>>shift&digit]] = k
			start[k>>shift&digit]++
		}
		keys, spare = spare, keys
	}
	links := spare
	for r, k := range keys {
		next := uint64(endOfChain)
		if r+1 < len(keys) && keys[r+1]>>32 == k>>32 {
			next = keys[r+1] & math.MaxUint32
		}
		links[uint32(k)] = next<<32 | k&math.MaxUint32
	}
	return links
}

// radixBits is how many bits of a Target one pass of victimChains' sort
// takes: three passes, each counting into 2,048 buckets.
const radixBits = 11

// victimCapacity derives a deterministic pseudo-random capacity for a
// non-nameserver victim from its address.
func victimCapacity(a netx.Addr, base float64) float64 {
	h := uint32(a) * 2654435761
	// spread capacities over roughly one order of magnitude around base
	f := 0.3 + float64(h%1000)/1000*3.0
	return base * f
}
