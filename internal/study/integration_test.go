package study

import (
	"context"
	"testing"
	"time"

	"dnsddos/internal/clock"
	"dnsddos/internal/nsset"
)

// caseStudyConfig restricts the measured interval to the §5 case-study
// periods so integration tests stay fast.
func caseStudyConfig() Config {
	cfg := QuickConfig()
	cfg.World.Domains = 4000
	cfg.Attacks.TotalAttacks = 3000
	return cfg
}

func TestTransIPCaseStudyEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cfg := caseStudyConfig()
	cfg.FromDay = clock.DayOf(time.Date(2020, 11, 28, 0, 0, 0, 0, time.UTC))
	cfg.ToDay = clock.DayOf(time.Date(2020, 12, 2, 0, 0, 0, 0, time.UTC))
	s := mustRun(t, cfg)
	cs := s.Schedule.CaseStudies

	// the December attack must be inferred on all three nameservers
	found := 0
	for _, a := range s.Attacks {
		for i, addr := range cs.TransIPNS {
			if a.Victim == addr && a.Overlaps(cs.TransIPDecStart, cs.TransIPDecEnd) {
				found++
				if i == 0 {
					// NS A: 124 kpps victim-side → ≈21.8 kppm at telescope
					pps := a.InferredVictimPPS(s.Telescope.ScaleFactor())
					if pps < 100000 || pps > 150000 {
						t.Errorf("NS A inferred pps = %.0f, want ≈124k", pps)
					}
					ips := a.InferredAttackerIPs(s.Telescope.ScaleFactor())
					if ips < 5_000_000 || ips > 6_500_000 {
						t.Errorf("NS A attacker IPs = %d, want ≈5.79M", ips)
					}
				}
			}
		}
	}
	if found != 3 {
		t.Fatalf("inferred December attack on %d/3 TransIP nameservers", found)
	}

	// Eq. 1 impact on the TransIP NSSet during the attack should be a
	// clear multi-fold increase ("10X increase in DNS resolution time").
	// Individual 5-minute windows carry few samples at test scale, so
	// average the per-window impacts weighted by measurement count.
	k := nsset.KeyOf(cs.TransIPNS[:])
	var impSum float64
	var impN int
	for w := clock.WindowOf(cs.TransIPDecStart); w <= clock.WindowOf(cs.TransIPDecEnd); w++ {
		if imp, ok := s.Agg.ImpactOnRTT(k, w); ok {
			m := s.Agg.Window(k, w)
			impSum += imp * float64(m.Domains)
			impN += m.Domains
		}
	}
	if impN == 0 {
		t.Fatal("no impact-bearing windows during the December attack")
	}
	avg := impSum / float64(impN)
	if avg < 3 || avg > 60 {
		t.Errorf("average December impact = %.1fx, want roughly 10x", avg)
	}

	// the impairment persists past the telescope-inferred end (the
	// December overhang, §5.1): some window in the 6 hours after the
	// attack still shows at least 2x
	var tail float64
	for w := clock.WindowOf(cs.TransIPDecEnd); w <= clock.WindowOf(cs.TransIPDecEnd.Add(6*time.Hour)); w++ {
		if imp, ok := s.Agg.ImpactOnRTT(k, w); ok && imp > tail {
			tail = imp
		}
	}
	if tail < 1.5 {
		t.Errorf("post-attack tail impact = %.1fx, want residual impairment", tail)
	}
}

func TestTransIPMarchTimeouts(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cfg := caseStudyConfig()
	cfg.FromDay = clock.DayOf(time.Date(2021, 2, 28, 0, 0, 0, 0, time.UTC))
	cfg.ToDay = clock.DayOf(time.Date(2021, 3, 3, 0, 0, 0, 0, time.UTC))
	s := mustRun(t, cfg)
	cs := s.Schedule.CaseStudies
	k := nsset.KeyOf(cs.TransIPNS[:])

	// March: a substantial fraction of measured domains time out
	// (Fig. 3 plateaus near 20%)
	var domains, timeouts int
	for w := clock.WindowOf(cs.TransIPMarStart.Add(30 * time.Minute)); w <= clock.WindowOf(cs.TransIPMarEnd); w++ {
		if m := s.Agg.Window(k, w); m != nil {
			domains += m.Domains
			timeouts += m.Timeouts
		}
	}
	if domains == 0 {
		t.Fatal("no measurements during the March attack")
	}
	rate := float64(timeouts) / float64(domains)
	if rate < 0.05 || rate > 0.5 {
		t.Errorf("March timeout rate = %.2f, want ≈0.2", rate)
	}

	// and the impairment window matches the attack window (scrubbing):
	// two hours after the end, timeouts are back to ≈0
	var post, postTO int
	for w := clock.WindowOf(cs.TransIPMarEnd.Add(2 * time.Hour)); w <= clock.WindowOf(cs.TransIPMarEnd.Add(5*time.Hour)); w++ {
		if m := s.Agg.Window(k, w); m != nil {
			post += m.Domains
			postTO += m.Timeouts
		}
	}
	if post > 0 && float64(postTO)/float64(post) > 0.05 {
		t.Errorf("post-attack timeout rate = %.2f, scrubbed provider should recover fast", float64(postTO)/float64(post))
	}
}

func TestMilRuUnresolvableDuringGeofence(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cfg := caseStudyConfig()
	cfg.FromDay = clock.DayOf(time.Date(2022, 3, 9, 0, 0, 0, 0, time.UTC))
	cfg.ToDay = clock.DayOf(time.Date(2022, 3, 19, 0, 0, 0, 0, time.UTC))
	s := mustRun(t, cfg)
	cs := s.Schedule.CaseStudies
	k := nsset.KeyOf(cs.MilRuNS)

	// during the geofence (Mar 12-16) every measurement fails
	var okCount, total int
	for d := clock.DayOf(time.Date(2022, 3, 12, 0, 0, 0, 0, time.UTC)); d <= clock.DayOf(time.Date(2022, 3, 16, 0, 0, 0, 0, time.UTC)); d++ {
		if b, ok := s.Agg.Baseline(k, d); ok {
			okCount += b.OKCount
			total += b.Domains
		}
	}
	if total == 0 {
		t.Fatal("mil.ru not measured during the attack")
	}
	if okCount != 0 {
		t.Errorf("mil.ru resolved %d/%d times during the geofence, want 0", okCount, total)
	}
	// before the attack it resolves fine
	if b, ok := s.Agg.Baseline(k, clock.DayOf(time.Date(2022, 3, 10, 0, 0, 0, 0, time.UTC))); !ok || b.OKCount == 0 {
		t.Error("mil.ru should resolve before the attack")
	}
}

func TestStudyDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cfg := caseStudyConfig()
	cfg.FromDay, cfg.ToDay = 28, 32
	cfg.Parallelism = 4
	a := mustRun(t, cfg)
	b := mustRun(t, cfg)
	if len(a.Attacks) != len(b.Attacks) {
		t.Fatalf("attack counts differ: %d vs %d", len(a.Attacks), len(b.Attacks))
	}
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i].Impact != b.Events[i].Impact || a.Events[i].MeasuredDomains != b.Events[i].MeasuredDomains {
			t.Fatalf("event %d differs across identical runs", i)
		}
	}
}

func TestParallelSweepMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cfg := caseStudyConfig()
	cfg.FromDay, cfg.ToDay = 28, 34
	cfg.Parallelism = 1
	seq := mustRun(t, cfg)
	cfg.Parallelism = 7
	par := mustRun(t, cfg)
	if len(seq.Events) != len(par.Events) {
		t.Fatalf("events differ: seq %d vs par %d", len(seq.Events), len(par.Events))
	}
	for i := range seq.Events {
		if seq.Events[i].Impact != par.Events[i].Impact {
			t.Fatalf("event %d impact differs: %v vs %v", i, seq.Events[i].Impact, par.Events[i].Impact)
		}
	}
	// aggregates identical for a case-study NSSet
	k := nsset.KeyOf(seq.Schedule.CaseStudies.TransIPNS[:])
	for d := cfg.FromDay; d <= cfg.ToDay; d++ {
		sb, sok := seq.Agg.Baseline(k, d)
		pb, pok := par.Agg.Baseline(k, d)
		if sok != pok {
			t.Fatalf("day %d baseline presence differs", d)
		}
		if sb != pb {
			t.Fatalf("day %d baseline differs: %+v vs %+v", d, sb, pb)
		}
	}
}

func TestStudyWithNoise(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cfg := caseStudyConfig()
	cfg.FromDay, cfg.ToDay = 28, 32
	clean := mustRun(t, cfg)
	cfg.IncludeNoise = true
	cfg.Noise.Days = 60 // bound runtime; covers the measured interval
	noisy := mustRun(t, cfg)
	// the noise floor must not create DNS-infrastructure attacks: noise
	// sources are random IPv4 addresses, essentially never nameservers
	var cleanDNS, noisyDNS int
	for _, ca := range clean.Classified {
		if ca.DNSInfra() {
			cleanDNS++
		}
	}
	for _, ca := range noisy.Classified {
		if ca.DNSInfra() {
			noisyDNS++
		}
	}
	if noisyDNS != cleanDNS {
		t.Errorf("noise changed DNS-attack count: %d vs %d", noisyDNS, cleanDNS)
	}
	// total inferred attacks grow at most marginally
	if extra := len(noisy.Attacks) - len(clean.Attacks); extra > len(clean.Attacks)/20 {
		t.Errorf("noise added %d attacks to %d", extra, len(clean.Attacks))
	}
}

func TestRussianSurgeInMarch2022(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cfg := caseStudyConfig()
	cfg.FromDay, cfg.ToDay = 28, 29 // no sweeps needed; schedule-level check
	s := mustRun(t, cfg)
	march := clock.DayOf(time.Date(2022, 3, 1, 0, 0, 0, 0, time.UTC)).Start()
	april := time.Date(2022, 4, 1, 0, 0, 0, 0, time.UTC)
	var ruAttacks int
	for _, a := range s.Attacks {
		if a.Start().Before(march) || !a.Start().Before(april) {
			continue
		}
		if ns, ok := s.World.DB.NameserverByAddr(a.Victim); ok {
			if s.World.DB.Providers[ns.Provider].Country == "RU" {
				ruAttacks++
			}
		}
	}
	// scripted case studies (mil.ru ×3, RDZ ×3) plus the surge
	if ruAttacks < 10 {
		t.Errorf("March-2022 attacks on RU providers = %d, want the surge", ruAttacks)
	}
}

func TestWithSkipJoinLeavesPipelineReady(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cfg := caseStudyConfig()
	cfg.FromDay, cfg.ToDay = 28, 30
	s, err := RunContext(context.Background(), cfg, WithSkipJoin())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Events) != 0 || len(s.Classified) != 0 {
		t.Fatalf("WithSkipJoin still joined: %d events, %d classified", len(s.Events), len(s.Classified))
	}
	if s.Pipeline == nil {
		t.Fatal("WithSkipJoin must leave the join pipeline built for external drivers")
	}
	// the pipeline stays usable: joining the inferred feed afterwards
	// matches what the un-skipped run would have produced
	events, err := s.Pipeline.EventsContext(context.Background(), s.Attacks)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != len(ref.Events) {
		t.Fatalf("deferred join found %d events, full run %d", len(events), len(ref.Events))
	}
}
