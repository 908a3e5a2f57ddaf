package report

import (
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"time"

	"dnsddos/internal/amppot"
	"dnsddos/internal/attacksim"
	"dnsddos/internal/cache"
	"dnsddos/internal/clock"
	"dnsddos/internal/dnsdb"
	"dnsddos/internal/netx"
	"dnsddos/internal/nsset"
	"dnsddos/internal/packet"
	"dnsddos/internal/resolver"
	"dnsddos/internal/simnet"
	"dnsddos/internal/study"
)

// The extensions: the paper's discussion points that are not tables or
// figures, each measured on the study's world or on a controlled one.

// transIPDomains returns the domains hosted on TransIP's first nameserver,
// at most limit of them (0: all).
func transIPDomains(s *study.Study, limit int) ([]dnsdb.DomainID, error) {
	ns, ok := s.World.DB.NameserverByAddr(s.Schedule.CaseStudies.TransIPNS[0])
	if !ok {
		return nil, errors.New("TransIP nameserver missing from the world")
	}
	domains := s.World.DB.DomainsOf(ns.ID)
	if limit > 0 && len(domains) > limit {
		domains = domains[:limit]
	}
	return domains, nil
}

// caching is the end-user counterfactual OpenINTEL's empty-cache
// measurements exclude (§3.2 footnote 1, Moura et al.'s "When the Dike
// Breaks"): TransIP domains resolved 90 minutes into the March attack by
// five resolver setups, the warm ones filled 3 h earlier.
func caching(w io.Writer, s *study.Study) error {
	domains, err := transIPDomains(s, 300)
	if err != nil {
		return err
	}
	during := s.Schedule.CaseStudies.TransIPMarStart.Add(90 * time.Minute)
	fmt.Fprintf(w, "# Caching counterfactual: %d TransIP domains during the March attack\nresolver,failures,stale_answers,mean_rtt_ms\n", len(domains))
	for _, setup := range []struct {
		name             string
		ttl              time.Duration
		warm, stale, neg bool
	}{
		{name: "no_cache", ttl: time.Nanosecond},
		{name: "warm_4h_ttl", ttl: 4 * time.Hour, warm: true},
		{name: "warm_60s_ttl", ttl: time.Minute, warm: true},
		{name: "warm_60s_ttl_serve_stale", ttl: time.Minute, warm: true, stale: true},
		{name: "no_cache_negative_caching", ttl: time.Nanosecond, neg: true},
	} {
		rng := rand.New(rand.NewPCG(77, 77))
		cr := cache.NewResolver(s.Resolver, 0, setup.ttl)
		cr.ServeStale = setup.stale
		if setup.neg {
			cr.EnableNegativeCaching(5 * time.Minute)
		}
		if setup.warm {
			for _, d := range domains {
				cr.Resolve(rng, d, during.Add(-3*time.Hour))
			}
		}
		var stale int
		mean, fails := meanRTT(len(domains), func(i int) resolver.Outcome {
			o := cr.Resolve(rng, domains[i], during.Add(time.Duration(i)*time.Second))
			if o.Stale {
				stale++
			}
			return o.Outcome
		})
		fmt.Fprintf(w, "%s,%d,%d,%.3f\n", setup.name, fails, stale, ms(mean))
	}
	return nil
}

// feeds sets the telescope's inferred (randomly spoofed) attacks beside a
// reflection-honeypot fleet's over the same schedule (Jonker et al.: ≈60%
// of attacks spoofed, ≈40% reflected). The honeypots see every reflection
// attack, so the share reflects the schedule, not fleet sampling.
func feeds(w io.Writer, s *study.Study) error {
	cfg := amppot.DefaultConfig()
	cfg.ReflectorsPerAttack = cfg.ReflectorPool
	reflected := amppot.NewFleet(cfg).Observe(rand.New(rand.NewPCG(88, 88)), s.Schedule.Sched)
	spoofed := make([]amppot.SpoofedAttack, 0, len(s.Attacks))
	for _, a := range s.Attacks {
		spoofed = append(spoofed, amppot.SpoofedAttack{Victim: a.Victim, From: a.Start(), To: a.End()})
	}
	fc := amppot.CompareFeeds(spoofed, reflected)
	fmt.Fprintf(w, "# Joint feeds: telescope (spoofed) vs honeypots (reflected)\nspoofed_only,%d\nreflected_only,%d\nboth,%d\nspoofed_share,%.2f\n",
		fc.SpoofedOnly, fc.ReflectedOnly, fc.Both, fc.SpoofedShare())
	return nil
}

// vantage quantifies catchment masking (§4.3 limitation 4, §9) in a
// controlled world: a flood saturates the hottest sites of a 16-site
// anycast nameserver, and each of 12 vantages sees only its own
// catchment's share of the impairment.
func vantage(w io.Writer, _ *study.Study) error {
	db := dnsdb.New()
	pid := db.AddProvider(dnsdb.Provider{Name: "AnycastRegional"})
	id, err := db.AddNameserver(dnsdb.Nameserver{
		Host: "ns1.regional.example", Addr: 0x52000001, Provider: pid,
		Anycast: true, Sites: 16, CapacityPPS: 5e4, BaseRTT: 8 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	db.AddDomain(dnsdb.Domain{Name: "r.example", NS: []dnsdb.NameserverID{id}})
	db.Freeze()
	start := time.Date(2021, 6, 1, 12, 0, 0, 0, time.UTC)
	var flood attacksim.Builder
	flood.Add(attacksim.Spec{
		Target: db.Nameservers[id].Addr, Vector: attacksim.VectorRandomSpoofed, Proto: packet.ProtoTCP,
		Start: start.UnixNano(), End: start.Add(time.Hour).UnixNano(), PPS: 1.2e6,
	}, 53)
	net := simnet.New(simnet.DefaultParams(), db, flood.Schedule())
	mid := start.Add(30 * time.Minute)
	fmt.Fprintf(w, "# Multi-vantage catchment: 12 vantages, one attacked 16-site anycast nameserver\nvantage,impaired_share\n")
	for seed := uint64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewPCG(seed, 7))
		v := net.WithVantage(simnet.Vantage{Name: fmt.Sprintf("v%d", seed), RTTScale: 1, CatchmentSeed: seed})
		var impaired int
		for i := 0; i < 200; i++ {
			if st, rtt := v.Query(rng, id, mid); st != nsset.StatusOK || rtt > 3*db.Nameservers[id].BaseRTT {
				impaired++
			}
		}
		fmt.Fprintf(w, "v%d,%.2f\n", seed, float64(impaired)/200)
	}
	return nil
}

// popularity is §6.3.1's caching remark: a resolver's user population
// during the March TransIP attack, whose popular domains stay warm in
// cache, sees failures concentrated on the unpopular ones.
func popularity(w io.Writer, s *study.Study) error {
	domains, err := transIPDomains(s, 0)
	if err != nil {
		return err
	}
	cfg := cache.DefaultPopulationConfig()
	cfg.QueryRate = 3
	cfg.TTL = 2 * time.Hour
	start := s.Schedule.CaseStudies.TransIPMarStart
	outcomes := cache.SimulatePopulation(cfg, cache.NewResolver(s.Resolver, 0, cfg.TTL), domains,
		start.Add(-5*time.Hour), start, start.Add(45*time.Minute))
	fmt.Fprintf(w, "# Popularity vs caching: failure rate by popularity decile, TransIP March attack\ndecile,failure_rate\n")
	for _, o := range outcomes {
		fmt.Fprintf(w, "%d,%.2f\n", o.Decile, o.FailureRate())
	}
	return nil
}

// resilience is a controlled experiment on the §6.6 deployment techniques:
// three providers alike but for their deployment, each with the same
// 80 kpps TCP/53 flood on all three of its nameservers for an hour.
// Anycast spreads the flood across sites; prefix diversity alone does not
// lower a server's load when every nameserver is targeted (§5.2.3). The
// data plane loads each server on its own, so AS diversity, which only
// changes who routes a prefix, has no row here.
func resilience(w io.Writer, _ *study.Study) error {
	deployments := []struct {
		name     string
		prefixes int // distinct /24s for the 3 nameservers
		sites    int // anycast sites; 0 for unicast
	}{
		{"unicast_one_slash24", 1, 0},
		{"unicast_three_slash24s", 3, 0},
		{"anycast_24_sites", 3, 24},
	}
	db := dnsdb.New()
	var groups [][]dnsdb.NameserverID
	next24 := uint32(0x51100000 >> 8)
	for di, d := range deployments {
		pid := db.AddProvider(dnsdb.Provider{Name: d.name, Country: "NL"})
		var pool []netx.Prefix
		for i := 0; i < d.prefixes; i++ {
			pool = append(pool, netx.Prefix{Addr: netx.Addr(next24 << 8), Bits: 24})
			next24++
		}
		var ns []dnsdb.NameserverID
		for i := 0; i < 3; i++ {
			id, err := db.AddNameserver(dnsdb.Nameserver{
				Host:        fmt.Sprintf("ns%d.dep%d.example", i+1, di),
				Addr:        pool[i%len(pool)].Nth(uint64(10 + i)),
				Provider:    pid,
				Anycast:     d.sites > 0,
				Sites:       max(d.sites, 1),
				CapacityPPS: 5e4,
				BaseRTT:     8 * time.Millisecond,
			})
			if err != nil {
				return err
			}
			ns = append(ns, id)
		}
		groups = append(groups, ns)
		for i := 0; i < 200; i++ {
			db.AddDomain(dnsdb.Domain{Name: fmt.Sprintf("d%02d-%03d.example", di, i), NS: append([]dnsdb.NameserverID(nil), ns...)})
		}
	}
	db.Freeze()
	start := clock.StudyStart.AddDate(0, 1, 3).Add(12 * time.Hour)
	var floods attacksim.Builder
	for _, ns := range groups {
		for _, id := range ns {
			floods.Add(attacksim.Spec{
				Target: db.Nameservers[id].Addr, Vector: attacksim.VectorRandomSpoofed, Proto: packet.ProtoTCP,
				Start: start.UnixNano(), End: start.Add(time.Hour).UnixNano(), PPS: 8e4,
			}, 53)
		}
	}
	res := resolver.New(resolver.DefaultConfig(), db, simnet.New(simnet.DefaultParams(), db, floods.Schedule()))
	rng := rand.New(rand.NewPCG(3, 3))
	// 400 resolutions of the deployment's domains, a second apart from t
	measure := func(ns []dnsdb.NameserverID, t time.Time) (time.Duration, int) {
		domains := db.DomainsOf(ns[0])
		return meanRTT(400, func(i int) resolver.Outcome {
			return res.Resolve(rng, domains[i%len(domains)], t.Add(time.Duration(i)*time.Second))
		})
	}
	fmt.Fprintf(w, "# Deployment resilience (§6.6): one 80 kpps TCP/53 flood on every nameserver\ndeployment,baseline_rtt_ms,attack_rtt_ms,failure_pct,impact_x\n")
	for di, ns := range groups {
		base, _ := measure(ns, start.Add(-24*time.Hour))
		atk, fails := measure(ns, start.Add(30*time.Minute))
		impact := "" // no resolution succeeded: no Eq. 1 ratio
		if atk > 0 {
			impact = fmt.Sprintf("%.1f", float64(atk)/float64(base))
		}
		fmt.Fprintf(w, "%s,%.1f,%.1f,%.1f,%s\n", deployments[di].name, ms(base), ms(atk), float64(fails)/4, impact)
	}
	return nil
}
