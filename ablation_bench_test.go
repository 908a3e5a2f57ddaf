package dnsddos_test

import (
	"fmt"
	"math/rand/v2"
	"testing"
	"time"

	"dnsddos/internal/core"
	"dnsddos/internal/dnsdb"
	"dnsddos/internal/nsset"
	"dnsddos/internal/reactive"
	"dnsddos/internal/resolver"
	"dnsddos/internal/rsdos"
	"dnsddos/internal/study"
)

// Ablation benchmarks re-run the join pipeline (cheap; the measurement
// sweeps are shared) under the design alternatives DESIGN.md §6 calls out,
// printing how the headline numbers move.

// rebuildEvents reruns the pipeline with a modified config over the shared
// study's measurements.
func rebuildEvents(s *study.Study, mutate func(*core.Config)) []core.Event {
	cfg := s.Config.Pipeline
	mutate(&cfg)
	p := core.NewPipeline(s.World.DB, core.WithConfig(cfg), core.WithAggregator(s.Agg), core.WithCensus(s.World.Census), core.WithTopology(s.World.Topo), core.WithOpenResolvers(s.World.OpenRes))
	return p.Events(s.Attacks)
}

func summarizeEvents(events []core.Event) (n, failing, over10 int) {
	for _, e := range events {
		if e.Timeouts+e.ServFails > 0 {
			failing++
		}
		if e.HasImpact && e.Impact >= 10 {
			over10++
		}
	}
	return len(events), failing, over10
}

func printAblation(key, format string, args ...any) {
	printReport(key, func() { fmt.Printf(format, args...) })
}

// newBenchPlatform builds a reactive platform over the shared study.
func newBenchPlatform(s *study.Study) *reactive.Platform {
	return reactive.NewPlatform(reactive.DefaultConfig(), s.World.DB, s.Resolver, rand.New(rand.NewPCG(9, 9)))
}

// BenchmarkAblation_JoinSnapshotDay compares the paper's previous-day
// nameserver snapshot against a same-day snapshot (§4.2): with same-day, a
// devastating attack can hide the very NSSets it harms.
func BenchmarkAblation_JoinSnapshotDay(b *testing.B) {
	s := benchStudy(b)
	prev := summarize3(rebuildEvents(s, func(c *core.Config) { c.UsePrevDaySnapshot = true }))
	same := summarize3(rebuildEvents(s, func(c *core.Config) { c.UsePrevDaySnapshot = false }))
	printAblation("snapshot", "# ablation snapshot-day: prev-day %v vs same-day %v (events, failing, >=10x)\n", prev, same)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rebuildEvents(s, func(c *core.Config) { c.UsePrevDaySnapshot = false })
	}
}

func summarize3(ev []core.Event) [3]int {
	n, f, o := summarizeEvents(ev)
	return [3]int{n, f, o}
}

// BenchmarkAblation_BaselineWindow compares Eq. 1 baselines: previous day
// (paper) vs a week before (the paper reports similar results, §4.1).
func BenchmarkAblation_BaselineWindow(b *testing.B) {
	s := benchStudy(b)
	day := summarize3(rebuildEvents(s, func(c *core.Config) { c.BaselineDaysBack = 1 }))
	week := summarize3(rebuildEvents(s, func(c *core.Config) { c.BaselineDaysBack = 7 }))
	printAblation("baseline", "# ablation baseline-window: day-before %v vs week-before %v (events, failing, >=10x)\n", day, week)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rebuildEvents(s, func(c *core.Config) { c.BaselineDaysBack = 7 })
	}
}

// BenchmarkAblation_MinDomainsFilter sweeps the §6.3 noise filter.
func BenchmarkAblation_MinDomainsFilter(b *testing.B) {
	s := benchStudy(b)
	var line string
	for _, minD := range []int{1, 5, 20} {
		n, f, o := summarizeEvents(rebuildEvents(s, func(c *core.Config) { c.MinMeasuredDomains = minD }))
		line += fmt.Sprintf(" min=%d:(%d,%d,%d)", minD, n, f, o)
	}
	printAblation("mindomains", "# ablation min-measured-domains (events, failing, >=10x):%s\n", line)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rebuildEvents(s, func(c *core.Config) { c.MinMeasuredDomains = 1 })
	}
}

// BenchmarkAblation_OpenResolverFilter toggles the §6.1 open-resolver
// filter and reports how Table 5's head changes.
func BenchmarkAblation_OpenResolverFilter(b *testing.B) {
	s := benchStudy(b)
	printAblation("openres", "%s", func() string {
		on := core.NewPipeline(s.World.DB, core.WithConfig(s.Config.Pipeline), core.WithAggregator(s.Agg), core.WithCensus(s.World.Census), core.WithTopology(s.World.Topo), core.WithOpenResolvers(s.World.OpenRes))
		offCfg := s.Config.Pipeline
		offCfg.FilterOpenResolvers = false
		off := core.NewPipeline(s.World.DB, core.WithConfig(offCfg), core.WithAggregator(s.Agg), core.WithCensus(s.World.Census), core.WithTopology(s.World.Topo), core.WithOpenResolvers(s.World.OpenRes))
		onEvents := len(on.Events(s.Attacks))
		offEvents := len(off.Events(s.Attacks))
		return fmt.Sprintf("# ablation open-resolver filter: events with filter=%d without=%d (misconfigured-NS domains join in)\n",
			onEvents, offEvents)
	}())
	b.ResetTimer()
	offCfg := s.Config.Pipeline
	offCfg.FilterOpenResolvers = false
	for i := 0; i < b.N; i++ {
		p := core.NewPipeline(s.World.DB, core.WithConfig(offCfg), core.WithAggregator(s.Agg), core.WithCensus(s.World.Census), core.WithTopology(s.World.Topo), core.WithOpenResolvers(s.World.OpenRes))
		_ = p.Classify(s.Attacks)
	}
}

// BenchmarkAblation_ResolutionStrategy compares OpenINTEL's agnostic
// resolution against the reactive platform's NS-exhaustive strategy (§4.3,
// §9): exhaustive probing attributes failure to individual nameservers,
// which agnostic resolution cannot.
func BenchmarkAblation_ResolutionStrategy(b *testing.B) {
	s := benchStudy(b)
	cs := s.Schedule.CaseStudies
	k := nsset.KeyOf(cs.TransIPNS[:])
	attack, ok := rsdos.FirstOn(s.Attacks, cs.TransIPNS[:], cs.TransIPMarStart, cs.TransIPMarEnd)
	if !ok {
		b.Skip("TransIP March attack not inferred")
	}
	_ = k
	printAblation("strategy", "%s", func() string {
		// agnostic: per-NSSet failure rate during the attack
		var agnostic string
		for _, e := range s.Events {
			if e.Attack.ID == attack.ID && e.NSSet == k {
				agnostic = fmt.Sprintf("agnostic NSSet failure rate %.2f", e.FailureRate)
			}
		}
		// exhaustive: per-NS availability from a reactive campaign
		platform := newBenchPlatform(s)
		c := platform.React(attack)
		perNS := map[string]string{}
		for _, wa := range c.Availability() {
			if !wa.Window.Start().After(attack.Start()) {
				continue
			}
			for ns, cnt := range wa.PerNS {
				addr := s.World.DB.Nameservers[ns].Addr.String()
				perNS[addr] = fmt.Sprintf("%.2f", float64(cnt[0])/float64(cnt[1]))
			}
			break
		}
		return fmt.Sprintf("# ablation resolution strategy: %s; exhaustive per-NS availability %v\n", agnostic, perNS)
	}())
	b.ResetTimer()
	platform := newBenchPlatform(s)
	for i := 0; i < b.N; i++ {
		_ = platform.React(attack)
	}
}

// BenchmarkPipelineJoin measures raw join throughput: attacks joined per
// second over the shared measurement dataset.
func BenchmarkPipelineJoin(b *testing.B) {
	s := benchStudy(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Pipeline.Events(s.Attacks)
	}
	b.ReportMetric(float64(len(s.Attacks)), "attacks/op")
}

// BenchmarkRSDoSInference measures inference throughput over the synthetic
// telescope observations.
func BenchmarkRSDoSInference(b *testing.B) {
	s := benchStudy(b)
	cfg := s.Config.RSDoS
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = rsdos.Infer(cfg, s.Obs)
	}
	b.ReportMetric(float64(len(s.Obs)), "observations/op")
}

// BenchmarkAblation_FollowDelegation compares resolution with and without
// following parent-side delegations: stale parents (lame delegations) burn
// round trips and slightly inflate baseline resolution times even with no
// attack in progress.
func BenchmarkAblation_FollowDelegation(b *testing.B) {
	s := benchStudy(b)
	quiet := s.Schedule.CaseStudies.TransIPDecStart.Add(-10 * 24 * time.Hour)
	// sample inconsistent domains
	var stale []dnsdb.DomainID
	for i := range s.World.DB.Domains {
		if s.World.DB.Domains[i].Inconsistent() {
			stale = append(stale, dnsdb.DomainID(i))
			if len(stale) == 300 {
				break
			}
		}
	}
	if len(stale) == 0 {
		b.Skip("no inconsistent delegations in this world")
	}
	measure := func(follow bool) (time.Duration, int) {
		cfg := s.Config.Resolver
		cfg.FollowDelegation = follow
		res := resolver.New(cfg, s.World.DB, s.Net)
		rng := rand.New(rand.NewPCG(31, 41))
		var sum time.Duration
		var fails int
		for i, d := range stale {
			o := res.Resolve(rng, d, quiet.Add(time.Duration(i)*time.Second))
			if o.Status == nsset.StatusOK {
				sum += o.RTT
			} else {
				fails++
			}
		}
		return sum / time.Duration(len(stale)), fails
	}
	printAblation("delegation", "%s", func() string {
		withRTT, withFails := measure(true)
		withoutRTT, withoutFails := measure(false)
		return fmt.Sprintf("# ablation follow-delegation (%d stale-parent domains, quiet period): with delegation avgRTT=%s fails=%d; child-only avgRTT=%s fails=%d\n",
			len(stale), withRTT.Round(time.Microsecond), withFails, withoutRTT.Round(time.Microsecond), withoutFails)
	}())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = measure(true)
	}
}
