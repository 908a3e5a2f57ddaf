package rsdos_test

import (
	"slices"
	"testing"

	"dnsddos/internal/rsdos"
	"dnsddos/internal/scenario"
	"dnsddos/internal/telescope"
)

// benchFeed draws the repo benchmark's feed: the observations of 6 000
// scheduled attacks (attack seed 7) on a 12 000-domain world.
func benchFeed() []rsdos.WindowObs {
	wcfg := scenario.DefaultWorldConfig()
	wcfg.Domains = 12000
	wcfg.GenericProviders = 60
	w := scenario.GenerateWorld(wcfg)
	acfg := scenario.DefaultAttackConfig()
	acfg.Seed = 7
	acfg.TotalAttacks = 6000
	sched := scenario.GenerateSchedule(acfg, w)
	var obs []rsdos.WindowObs
	scenario.Synthesize(scenario.DefaultSynthConfig(), w, sched.Sched, telescope.NewUCSD(), func(o *rsdos.WindowObs) {
		c := *o
		c.Ports = slices.Clone(o.Ports)
		obs = append(obs, c)
	}, nil)
	return obs
}

// BenchmarkInfer curates the repo benchmark's feed (make bench-session).
// Infer closes no window before the end, so its fold holds every run of
// the feed open, where the session's, closing as synthesis goes, holds
// the runs its watermark leaves open.
func BenchmarkInfer(b *testing.B) {
	obs := benchFeed()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if attacks := rsdos.Infer(rsdos.DefaultConfig(), obs); len(attacks) == 0 {
			b.Fatal("no attack inferred")
		}
	}
}
