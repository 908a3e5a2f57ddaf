package rsdos_test

import (
	"testing"

	"dnsddos/internal/rsdos"
	"dnsddos/internal/scenario"
	"dnsddos/internal/telescope"
)

// BenchmarkInfer curates the repo benchmark's feed: the observations of
// 6 000 scheduled attacks (attack seed 7) on a 12 000-domain world (make
// bench-session). Infer closes no window before the end, so its fold holds
// every qualifying observation, where the session's, closing as synthesis
// goes, holds a few thousand.
func BenchmarkInfer(b *testing.B) {
	wcfg := scenario.DefaultWorldConfig()
	wcfg.Domains = 12000
	wcfg.GenericProviders = 60
	w := scenario.GenerateWorld(wcfg)
	acfg := scenario.DefaultAttackConfig()
	acfg.Seed = 7
	acfg.TotalAttacks = 6000
	sched := scenario.GenerateSchedule(acfg, w)
	obs := scenario.SynthesizeObs(scenario.DefaultSynthConfig(), w, sched.Sched, telescope.NewUCSD())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if attacks := rsdos.Infer(rsdos.DefaultConfig(), obs); len(attacks) == 0 {
			b.Fatal("no attack inferred")
		}
	}
}
