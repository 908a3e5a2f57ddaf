package study

import (
	"context"
	"math/rand/v2"
	"testing"

	"dnsddos/internal/clock"
	"dnsddos/internal/obs"
)

// TestWindowSetMatchesMap holds the retained-window bitset to the map it
// replaced — one entry per kept window — over random span sets, asking
// about every window from well below the first span to well above the
// last.
func TestWindowSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 0x5e7))
	for round := 0; round < 200; round++ {
		base := clock.Window(rng.IntN(100000) - 20000) // negative windows too
		before, after := clock.Window(rng.IntN(80)), clock.Window(rng.IntN(80))
		var spans [][2]clock.Window
		keep := make(map[clock.Window]struct{})
		lo, hi := base, base
		for n := rng.IntN(12); n > 0; n-- {
			start := base + clock.Window(rng.IntN(3000))
			end := start + clock.Window(rng.IntN(40))
			spans = append(spans, [2]clock.Window{start - before, end + after})
			for w := start - before; w <= end+after; w++ {
				keep[w] = struct{}{}
			}
			lo, hi = min(lo, start-before), max(hi, end+after)
		}
		set := newWindowSet(spans)
		for w := lo - 200; w <= hi+200; w++ {
			if _, want := keep[w]; set.has(w) != want {
				t.Fatalf("round %d, spans %v: window %d kept = %v, the map says %v", round, spans, w, set.has(w), want)
			}
		}
		for _, w := range []clock.Window{-1 << 62, 1 << 62} {
			if set.has(w) {
				t.Fatalf("round %d: far window %d is in the set", round, w)
			}
		}
	}
}

// benchmarkScaleConfig is the repo benchmark's study at seed 1 in all but
// the seed derivation: 12 000 domains, 150 days, 6 000 attacks drawn with
// attack seed 7.
func benchmarkScaleConfig() Config {
	cfg := DefaultConfig()
	cfg.World.Domains = 12000
	cfg.World.GenericProviders = 60
	cfg.Attacks.Seed = 7
	cfg.Attacks.TotalAttacks = 6000
	cfg.FromDay, cfg.ToDay = 0, 149
	return cfg
}

// BenchmarkNewSession is the set-up every study, joinworker and setup_s
// sample pays, at the repo benchmark's scale (make bench-session).
func BenchmarkNewSession(b *testing.B) {
	cfg := benchmarkScaleConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewSession(context.Background(), cfg, obs.New()); err != nil {
			b.Fatal(err)
		}
	}
}
