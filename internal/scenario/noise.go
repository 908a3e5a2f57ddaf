package scenario

import (
	"math/rand/v2"

	"dnsddos/internal/clock"
	"dnsddos/internal/netx"
	"dnsddos/internal/packet"
	"dnsddos/internal/rsdos"
	"dnsddos/internal/stats"
	"dnsddos/internal/telescope"
)

// noise.go synthesizes the non-backscatter component of Internet Background
// Radiation the telescope also receives (§3.1: backscatter is "a
// significant component" of IBR, not all of it): scanners sweeping the
// darknet and misconfigured hosts retransmitting at single addresses. The
// Moore-et-al. thresholds in internal/rsdos — minimum packet counts and,
// critically, the /16-spread requirement — exist precisely to keep this
// traffic out of the attack feed; SynthesizeNoise lets tests and studies
// verify that they do.

// NoiseConfig sizes the IBR noise floor.
type NoiseConfig struct {
	Seed uint64
	// ScannersPerDay is how many scan sources sweep the darknet daily.
	// A scanner's packets have the scanner as source, so a naive
	// backscatter reading would see it as a "victim" — but its traffic
	// reaches the telescope from one host at a steady rate, spread over
	// destinations sequentially, and (crucially for TCP-SYN scans) is
	// not response traffic at all; we model the residue that survives
	// response-type classification: low-rate, low-spread sources.
	ScannersPerDay int
	// MisconfiguredPerDay is how many broken hosts retransmit into one
	// or two darknet addresses daily.
	MisconfiguredPerDay int
	// Days bounds the generated interval (0 = full study window).
	Days int
}

// DefaultNoiseConfig returns a noise floor proportionate to the default
// schedule sizes.
func DefaultNoiseConfig() NoiseConfig {
	return NoiseConfig{Seed: 555, ScannersPerDay: 40, MisconfiguredPerDay: 25}
}

// SynthesizeNoise produces the per-(source, window) observations the noise
// contributes, in the same WindowObs schema the inference consumes.
func SynthesizeNoise(cfg NoiseConfig, tel *telescope.Telescope) []rsdos.WindowObs {
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x401))
	days := cfg.Days
	if days <= 0 {
		days = clock.StudyDays()
	}
	var out []rsdos.WindowObs
	for day := 0; day < days; day++ {
		base := clock.Day(day).FirstWindow()
		for i := 0; i < cfg.ScannersPerDay; i++ {
			out = append(out, scannerObs(rng, tel, base)...)
		}
		for i := 0; i < cfg.MisconfiguredPerDay; i++ {
			out = append(out, misconfObs(rng, base)...)
		}
	}
	return out
}

// scannerObs models one scan source: minutes to hours of steady low-rate
// packets whose darknet footprint grows sequentially — few /16s per
// 5-minute window even when the total packet count is large.
func scannerObs(rng *rand.Rand, tel *telescope.Telescope, base clock.Window) []rsdos.WindowObs {
	src := netx.Addr(rng.Uint32())
	start := base + clock.Window(rng.IntN(int(clock.WindowsPerDay)))
	windows := 1 + rng.IntN(24)
	perWindow := 20 + rng.IntN(400)
	proto := packet.ProtoTCP
	port := uint16(23) // telnet and friends dominate scan targets
	switch rng.IntN(4) {
	case 1:
		port = 445
	case 2:
		port = 22
	case 3:
		port = 3389
	}
	out := make([]rsdos.WindowObs, 0, windows)
	ports := make([]rsdos.PortCount, windows) // one per window, cut clamped
	for w := 0; w < windows; w++ {
		pk := int64(perWindow) + rng.Int64N(20)
		// sequential sweep: a window's packets stay inside 1–4 /16s
		spread := 1 + rng.IntN(4)
		if spread > tel.NumSlash16() {
			spread = tel.NumSlash16()
		}
		ports[w] = rsdos.PortCount{Port: port, N: pk}
		out = append(out, rsdos.WindowObs{
			Window:     start + clock.Window(w),
			Victim:     src,
			Packets:    pk,
			PeakPPM:    float64(pk) / 5 * (1 + rng.Float64()*0.2),
			Slash16:    spread,
			UniqueDsts: pk,
			Proto:      proto,
			Ports:      ports[w : w+1 : w+1],
		})
	}
	return out
}

// misconfObs models a broken host retransmitting to one or two fixed
// darknet addresses: plenty of packets, no spread at all.
func misconfObs(rng *rand.Rand, base clock.Window) []rsdos.WindowObs {
	src := netx.Addr(rng.Uint32())
	start := base + clock.Window(rng.IntN(int(clock.WindowsPerDay)))
	windows := 1 + rng.IntN(200)
	out := make([]rsdos.WindowObs, 0, windows)
	ports := make([]rsdos.PortCount, windows) // one per window, cut clamped
	for w := 0; w < windows; w++ {
		pk := 5 + stats.Poisson(rng, 40)
		dsts := 1 + rng.Int64N(2)
		ports[w] = rsdos.PortCount{Port: uint16(1024 + rng.IntN(60000)), N: pk}
		out = append(out, rsdos.WindowObs{
			Window:     start + clock.Window(w),
			Victim:     src,
			Packets:    pk,
			PeakPPM:    float64(pk) / 5,
			Slash16:    1,
			UniqueDsts: dsts,
			Proto:      packet.ProtoUDP,
			Ports:      ports[w : w+1 : w+1],
		})
	}
	return out
}
