// Package telescope implements the network-telescope (darknet) substrate:
// an unused, globally announced address block that passively captures
// Internet Background Radiation, including the backscatter of randomly
// spoofed DoS attacks (§3.1).
//
// The default instance mirrors the UCSD-NT footprint — a /9 plus a /10,
// together ≈1/341 of the IPv4 space, the interpolation constant the paper
// uses to extrapolate telescope packet rates to victim-side rates
// (Table 2 footnote: 21.8 kppm × 341 / 60 s ≈ 124 kpps).
package telescope

import (
	"math"
	"math/rand/v2"

	"dnsddos/internal/netx"
)

// Telescope is a darknet address space.
type Telescope struct {
	space *netx.PrefixSet
	// slash16s caches the /16 blocks covered by the space, for the
	// /16-spread attack signal; slash16Idx inverts it for the per-packet
	// index lookup on the aggregation hot path.
	slash16s   []netx.Prefix
	slash16Idx map[netx.Prefix]int
	// spread[k] is ExpectedSlash16Spread(k) from k = 0 to the first k
	// where it reaches the /16 count, which every larger k returns too.
	spread []int32
}

// New builds a telescope over the given disjoint prefixes.
func New(space *netx.PrefixSet) *Telescope {
	t := &Telescope{space: space}
	seen := make(map[netx.Prefix]struct{})
	for _, p := range space.Prefixes() {
		if p.Bits >= 16 {
			k := p.Addr.Slash16()
			if _, ok := seen[k]; !ok {
				seen[k] = struct{}{}
				t.slash16s = append(t.slash16s, k)
			}
			continue
		}
		for a := p.First(); ; a += 1 << 16 {
			t.slash16s = append(t.slash16s, a.Slash16())
			if a.Slash16().Last() >= p.Last() {
				break
			}
		}
	}
	t.slash16Idx = make(map[netx.Prefix]int, len(t.slash16s))
	for i, p := range t.slash16s {
		t.slash16Idx[p] = i
	}
	// E[distinct] = m(1 - (1 - 1/m)^k) over the m /16s, the power taken
	// through log1p; rounded, it never falls as k grows and reaches m
	// once the power underflows.
	m := float64(len(t.slash16s))
	logMiss := math.Inf(-1)
	if m > 1 {
		logMiss = math.Log1p(-1 / m)
	}
	t.spread = []int32{0}
	for k := 1; int(t.spread[k-1]) < len(t.slash16s); k++ {
		e := m * (1 - math.Exp(float64(k)*logMiss))
		t.spread = append(t.spread, int32(e+0.5))
	}
	return t
}

// NewUCSD returns a telescope with the UCSD-NT-shaped footprint: a /9 and
// a /10 (we place them in 44.0.0.0/9 and 44.128.0.0/10).
func NewUCSD() *Telescope {
	return New(netx.MustNewPrefixSet(
		netx.MustParsePrefix("44.0.0.0/9"),
		netx.MustParsePrefix("44.128.0.0/10"),
	))
}

// Contains reports whether dst falls inside the darknet.
func (t *Telescope) Contains(dst netx.Addr) bool { return t.space.Contains(dst) }

// Fraction returns the share of IPv4 the telescope covers (≈1/341 for the
// UCSD footprint).
func (t *Telescope) Fraction() float64 { return t.space.Fraction() }

// ScaleFactor returns 1/Fraction(), the multiplier used to extrapolate
// telescope-observed counts to the full IPv4 space (≈341).
func (t *Telescope) ScaleFactor() float64 { return 1 / t.space.Fraction() }

// NumSlash16 returns the number of /16 blocks the telescope covers (192 for
// the UCSD footprint). The RSDoS inference uses the number of distinct /16s
// receiving backscatter as its noise filter.
func (t *Telescope) NumSlash16() int { return len(t.slash16s) }

// RandomAddr returns a uniformly random darknet address: the conditional
// distribution of a uniformly spoofed source given that it lands in the
// telescope. The thinned backscatter sampler uses it.
func (t *Telescope) RandomAddr(rng *rand.Rand) netx.Addr {
	n := rng.Uint64N(t.space.Size())
	for _, p := range t.space.Prefixes() {
		if n < p.Size() {
			return p.Nth(n)
		}
		n -= p.Size()
	}
	panic("telescope: unreachable")
}

// Slash16Index returns the index of the telescope /16 containing dst, or
// -1 when dst is outside the darknet. The observation builder uses it to
// count the /16 spread cheaply.
func (t *Telescope) Slash16Index(dst netx.Addr) int {
	if !t.space.Contains(dst) {
		return -1
	}
	if i, ok := t.slash16Idx[dst.Slash16()]; ok {
		return i
	}
	return -1
}

// ExpectedSlash16Spread returns the expected number of distinct telescope
// /16s hit by k uniformly placed darknet packets (coupon-collector
// expectation), used by the flow-level generator to synthesize the spread
// signal without materializing addresses. It reads the table New
// computed.
func (t *Telescope) ExpectedSlash16Spread(k int64) int {
	switch {
	case k <= 0:
		return 0
	case k >= int64(len(t.spread)):
		return len(t.slash16s)
	}
	return int(t.spread[k])
}
