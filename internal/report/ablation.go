package report

import (
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"time"

	"dnsddos/internal/clock"
	"dnsddos/internal/core"
	"dnsddos/internal/dnsdb"
	"dnsddos/internal/nsset"
	"dnsddos/internal/obs"
	"dnsddos/internal/reactive"
	"dnsddos/internal/resolver"
	"dnsddos/internal/rsdos"
	"dnsddos/internal/study"
)

// The DESIGN §6 ablations: the study's join re-run under a design
// alternative, or its resolver under another resolution strategy.

// variant is one join configuration of an ablation.
type variant struct {
	name   string
	mutate func(*core.Config)
}

// joinAblation re-joins the study's attacks over its measured days once
// per variant and prints how many events there are, how many saw a
// failing resolution and how many reached a ≥10× Eq. 1 impact.
func joinAblation(title string, variants ...variant) func(io.Writer, *study.Study) error {
	return plain(func(w io.Writer, s *study.Study) {
		var quarantined []clock.Day
		for _, d := range s.Report.SkippedDays {
			quarantined = append(quarantined, d.Day)
		}
		fmt.Fprintf(w, "# %s\nvariant,events,failing,impact_ge10x\n", title)
		for _, v := range variants {
			cfg := s.Config.Pipeline
			v.mutate(&cfg)
			events := s.NewPipeline(s.Pipeline.DayStore(), quarantined, obs.New(), core.WithConfig(cfg)).Events(s.Attacks)
			var failing, over10 int
			for _, e := range events {
				if e.Timeouts+e.ServFails > 0 {
					failing++
				}
				if e.HasImpact && e.Impact >= 10 {
					over10++
				}
			}
			fmt.Fprintf(w, "%s,%d,%d,%d\n", v.name, len(events), failing, over10)
		}
	})
}

var (
	ablationSnapshot = joinAblation("Ablation (§4.2): previous-day vs same-day NS snapshot",
		variant{"prev_day", func(c *core.Config) { c.UsePrevDaySnapshot = true }},
		variant{"same_day", func(c *core.Config) { c.UsePrevDaySnapshot = false }})
	ablationBaseline = joinAblation("Ablation (§4.1): Eq. 1 baseline a day vs a week before",
		variant{"day_before", func(c *core.Config) { c.BaselineDaysBack = 1 }},
		variant{"week_before", func(c *core.Config) { c.BaselineDaysBack = 7 }})
	ablationMinDomains = joinAblation("Ablation (§6.3): minimum measured domains per event",
		variant{"min_1", func(c *core.Config) { c.MinMeasuredDomains = 1 }},
		variant{"min_5", func(c *core.Config) { c.MinMeasuredDomains = 5 }},
		variant{"min_20", func(c *core.Config) { c.MinMeasuredDomains = 20 }})
	ablationOpenRes = joinAblation("Ablation (§6.1): open-resolver filter on vs off",
		variant{"filter_on", func(c *core.Config) { c.FilterOpenResolvers = true }},
		variant{"filter_off", func(c *core.Config) { c.FilterOpenResolvers = false }})
)

// ablationStrategy sets OpenINTEL's agnostic resolution, one failure rate
// per NSSet, against the reactive platform's NS-exhaustive probing, one
// per nameserver, in the first probed window of the TransIP March attack
// (§4.3, §9): only the exhaustive view tells which server failed.
func ablationStrategy(w io.Writer, s *study.Study) error {
	cs := s.Schedule.CaseStudies
	attack, ok := rsdos.FirstOn(s.Attacks, cs.TransIPNS[:], cs.TransIPMarStart, cs.TransIPMarEnd)
	if !ok {
		return errors.New("TransIP March attack not inferred from telescope data")
	}
	fmt.Fprintf(w, "# Ablation (§4.3): agnostic vs NS-exhaustive resolution, TransIP March attack\nstrategy,scope,failure_rate\n")
	k := nsset.KeyOf(cs.TransIPNS[:])
	for _, e := range s.Events {
		if e.Attack.ID == attack.ID && e.NSSet == k {
			fmt.Fprintf(w, "agnostic,nsset,%.2f\n", e.FailureRate)
		}
	}
	c := reactive.NewPlatform(reactive.DefaultConfig(), s.World.DB, s.Resolver, rand.New(rand.NewPCG(9, 9))).React(attack)
	for _, wa := range c.Availability() {
		if !wa.Window.Start().After(attack.Start()) {
			continue
		}
		for _, addr := range cs.TransIPNS {
			ns, _ := s.World.DB.NameserverByAddr(addr)
			if cnt, ok := wa.PerNS[ns.ID]; ok {
				fmt.Fprintf(w, "exhaustive,%s,%.2f\n", addr, 1-float64(cnt[0])/float64(cnt[1]))
			}
		}
		break
	}
	return nil
}

// ablationDelegation resolves up to 300 domains whose parent delegation
// is stale, in a quiet period, with and without following the parent's
// NS set: lame parent servers burn round trips even with no attack.
func ablationDelegation(w io.Writer, s *study.Study) error {
	var stale []dnsdb.DomainID
	for i := range s.World.DB.Domains {
		if s.World.DB.Inconsistent(dnsdb.DomainID(i)) {
			stale = append(stale, dnsdb.DomainID(i))
			if len(stale) == 300 {
				break
			}
		}
	}
	if len(stale) == 0 {
		return errors.New("no inconsistent delegations in this world")
	}
	quiet := s.Schedule.CaseStudies.TransIPDecStart.Add(-10 * 24 * time.Hour)
	fmt.Fprintf(w, "# Ablation (§3.2): following stale parent delegations, %d inconsistent domains, quiet period\nresolution,mean_rtt_ms,failures\n", len(stale))
	for _, follow := range []bool{true, false} {
		cfg := s.Config.Resolver
		cfg.FollowDelegation = follow
		res := resolver.New(cfg, s.World.DB, s.Net)
		rng := rand.New(rand.NewPCG(31, 41))
		mean, fails := meanRTT(len(stale), func(i int) resolver.Outcome {
			return res.Resolve(rng, stale[i], quiet.Add(time.Duration(i)*time.Second))
		})
		name := "child_only"
		if follow {
			name = "follow_delegation"
		}
		fmt.Fprintf(w, "%s,%.3f,%d\n", name, ms(mean), fails)
	}
	return nil
}

// meanRTT makes n resolutions, the i-th through resolve(i), and returns
// the mean RTT over those that succeeded (0 when none did) and how many
// failed.
func meanRTT(n int, resolve func(i int) resolver.Outcome) (mean time.Duration, fails int) {
	var sum time.Duration
	for i := 0; i < n; i++ {
		if o := resolve(i); o.Status == nsset.StatusOK {
			sum += o.RTT
		} else {
			fails++
		}
	}
	if ok := n - fails; ok > 0 {
		mean = sum / time.Duration(ok)
	}
	return mean, fails
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
