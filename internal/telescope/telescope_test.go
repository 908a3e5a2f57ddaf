package telescope

import (
	"math"
	"math/rand/v2"
	"testing"

	"dnsddos/internal/netx"
)

func TestUCSDFootprint(t *testing.T) {
	tel := NewUCSD()
	if scale := tel.ScaleFactor(); scale < 341 || scale > 342 {
		t.Errorf("scale factor = %.2f, want ≈341.3 (Table 2)", scale)
	}
	// /9 holds 128 /16s, /10 holds 64 → 192
	if got := tel.NumSlash16(); got != 192 {
		t.Errorf("NumSlash16 = %d, want 192", got)
	}
	if !tel.Contains(netx.MustParseAddr("44.0.0.1")) || !tel.Contains(netx.MustParseAddr("44.191.255.255")) {
		t.Error("darknet membership")
	}
	if tel.Contains(netx.MustParseAddr("44.192.0.0")) {
		t.Error("outside the /9+/10")
	}
}

func TestRandomAddrInDarknet(t *testing.T) {
	tel := NewUCSD()
	rng := rand.New(rand.NewPCG(1, 1))
	for i := 0; i < 5000; i++ {
		if a := tel.RandomAddr(rng); !tel.Contains(a) {
			t.Fatalf("RandomAddr %v outside darknet", a)
		}
	}
}

func TestSlash16Index(t *testing.T) {
	tel := NewUCSD()
	a := netx.MustParseAddr("44.5.1.2")
	b := netx.MustParseAddr("44.5.200.9") // same /16
	c := netx.MustParseAddr("44.6.0.1")   // different /16
	ia, ib, ic := tel.Slash16Index(a), tel.Slash16Index(b), tel.Slash16Index(c)
	if ia < 0 || ia != ib {
		t.Errorf("same-/16 addresses index %d vs %d", ia, ib)
	}
	if ic == ia || ic < 0 {
		t.Errorf("different /16 index %d vs %d", ic, ia)
	}
	if tel.Slash16Index(netx.MustParseAddr("8.8.8.8")) != -1 {
		t.Error("outside darknet should be -1")
	}
}

func TestExpectedSlash16Spread(t *testing.T) {
	tel := NewUCSD()
	if got := tel.ExpectedSlash16Spread(0); got != 0 {
		t.Errorf("spread(0) = %d", got)
	}
	if got := tel.ExpectedSlash16Spread(1); got != 1 {
		t.Errorf("spread(1) = %d", got)
	}
	// large packet counts cover all 192 /16s
	if got := tel.ExpectedSlash16Spread(100000); got != 192 {
		t.Errorf("spread(100k) = %d, want 192", got)
	}
	// monotone non-decreasing
	prev := 0
	for _, k := range []int64{1, 5, 20, 50, 100, 500, 5000} {
		got := tel.ExpectedSlash16Spread(k)
		if got < prev {
			t.Errorf("spread not monotone at %d: %d < %d", k, got, prev)
		}
		prev = got
	}
}

// expectedSpreadFormula is the coupon-collector expectation
// ExpectedSlash16Spread computed per call before New tabulated it.
func expectedSpreadFormula(t *Telescope, k int64) int {
	m := float64(t.NumSlash16())
	if k <= 0 {
		return 0
	}
	logMiss := math.Inf(-1)
	if m > 1 {
		logMiss = math.Log1p(-1 / m)
	}
	e := m * (1 - math.Exp(float64(k)*logMiss))
	return int(e + 0.5)
}

// TestSpreadTableMatchesFormula holds the table to the formula for every
// packet count up to 2^20 and at 2^40, on the UCSD footprint and on
// telescopes of one and two /16s.
func TestSpreadTableMatchesFormula(t *testing.T) {
	for _, tel := range []*Telescope{
		NewUCSD(),
		New(netx.MustNewPrefixSet(netx.MustParsePrefix("100.64.0.0/16"))),
		New(netx.MustNewPrefixSet(netx.MustParsePrefix("100.64.0.0/15"))),
	} {
		for k := int64(-1); k <= 1<<20; k++ {
			if got, want := tel.ExpectedSlash16Spread(k), expectedSpreadFormula(tel, k); got != want {
				t.Fatalf("%d /16s: spread(%d) = %d, formula %d", tel.NumSlash16(), k, got, want)
			}
		}
		if got, want := tel.ExpectedSlash16Spread(1<<40), expectedSpreadFormula(tel, 1<<40); got != want {
			t.Errorf("%d /16s: spread(2^40) = %d, formula %d", tel.NumSlash16(), got, want)
		}
	}
}

// TestExpectedSpreadMatchesSimulation cross-checks the coupon-collector
// formula against empirical uniform placement.
func TestExpectedSpreadMatchesSimulation(t *testing.T) {
	tel := NewUCSD()
	rng := rand.New(rand.NewPCG(3, 3))
	for _, k := range []int64{10, 60, 250} {
		const trials = 200
		var total int
		for tr := 0; tr < trials; tr++ {
			seen := map[int]struct{}{}
			for i := int64(0); i < k; i++ {
				seen[tel.Slash16Index(tel.RandomAddr(rng))] = struct{}{}
			}
			total += len(seen)
		}
		empirical := float64(total) / trials
		formula := float64(tel.ExpectedSlash16Spread(k))
		if math.Abs(empirical-formula) > 0.08*empirical+1.5 {
			t.Errorf("k=%d: formula %.1f vs empirical %.1f", k, formula, empirical)
		}
	}
}

func TestNewFromLargeBlocksCoversSlash16s(t *testing.T) {
	// a /14 spans 4 /16s
	tel := New(netx.MustNewPrefixSet(netx.MustParsePrefix("100.64.0.0/14")))
	if got := tel.NumSlash16(); got != 4 {
		t.Errorf("NumSlash16 = %d, want 4", got)
	}
	// /24-granularity space maps into one /16
	tel2 := New(netx.MustNewPrefixSet(netx.MustParsePrefix("100.64.0.0/24")))
	if got := tel2.NumSlash16(); got != 1 {
		t.Errorf("small block NumSlash16 = %d, want 1", got)
	}
}
