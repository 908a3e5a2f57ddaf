package report

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"time"

	"dnsddos/internal/core"
	"dnsddos/internal/netx"
	"dnsddos/internal/nsset"
	"dnsddos/internal/reactive"
	"dnsddos/internal/rsdos"
	"dnsddos/internal/study"
)

// An Artefact is one table, figure or case study of the paper's evaluation
// (§5–§6), or one of DESIGN §6's ablations and extensions. DESIGN §4 has
// one row per artefact and names it by ID; cmd/report, the
// root BenchmarkPaper and the catalogue test range over Catalogue, so which
// analysis, which parameters and which renderer make an artefact is written
// once, in its entry.
type Artefact struct {
	ID    string // DESIGN §4's last column and the sub-benchmark name
	Title string // caption, printed above the artefact by Report
	File  string // file name under cmd/report's -outdir (Export)
	// Write renders the table, or the figure's plot series: File's bytes.
	Write func(w io.Writer, s *study.Study) error
	// Notes renders the numbers the paper quotes beside a figure (shares,
	// modes, the §6.3.1 breakdown). They are not plot data: Report prints
	// them after the series, File does not carry them.
	Notes func(w io.Writer, s *study.Study)
}

// Report writes the artefact as the report shows it: caption, Write's
// bytes and, after a blank line, Notes.
func (a Artefact) Report(w io.Writer, s *study.Study) error {
	_, err := a.report(w, s)
	return err
}

// report is Report, returning Write's bytes — File's — too.
func (a Artefact) report(w io.Writer, s *study.Study) ([]byte, error) {
	fmt.Fprintf(w, "# %s\n", a.Title)
	var file bytes.Buffer
	if err := a.Write(&file, s); err != nil {
		return nil, fmt.Errorf("%s: %w", a.ID, err)
	}
	w.Write(file.Bytes())
	if a.Notes != nil {
		fmt.Fprintln(w)
		a.Notes(w, s)
	}
	return file.Bytes(), nil
}

// Export renders every artefact once: its report form to w, each followed
// by a blank line, and, when dir is not empty, its File and the run's
// metrics snapshot as metrics.json under dir — cmd/report and its -outdir.
func Export(w io.Writer, dir string, s *study.Study) error {
	for _, a := range Catalogue {
		file, err := a.report(w, s)
		if err != nil {
			return err
		}
		fmt.Fprintln(w)
		if dir != "" {
			if err := os.WriteFile(filepath.Join(dir, a.File), file, 0o644); err != nil {
				return err
			}
		}
	}
	if dir == "" {
		return nil
	}
	var metrics bytes.Buffer
	if err := s.Metrics.Snapshot().WriteJSON(&metrics); err != nil {
		return fmt.Errorf("metrics.json: %w", err)
	}
	return os.WriteFile(filepath.Join(dir, "metrics.json"), metrics.Bytes(), 0o644)
}

// plain adapts a renderer call that cannot fail to Artefact.Write.
func plain(f func(w io.Writer, s *study.Study)) func(io.Writer, *study.Study) error {
	return func(w io.Writer, s *study.Study) error { f(w, s); return nil }
}

// Catalogue lists every artefact: the paper's in its order, then the
// ablations and the extensions.
var Catalogue = []Artefact{
	{ID: "table1", Title: "Table 1: RSDoS dataset totals", File: "table1.txt",
		Write: plain(func(w io.Writer, s *study.Study) { Table1(w, core.SummarizeDataset(s.Attacks, s.World.Topo)) })},
	{ID: "table2", Title: "Table 2: the two TransIP attacks as the telescope saw them", File: "table2.txt", Write: table2,
		Notes: transIPReach},
	{ID: "table3", Title: "Table 3: DNS-infrastructure vs other attacks, by month", File: "table3.txt",
		Write: plain(func(w io.Writer, s *study.Study) { Table3(w, core.MonthlySummary(s.Classified)) })},
	{ID: "table4", Title: "Table 4: top 10 attacked ASNs", File: "table4.txt",
		Write: plain(func(w io.Writer, s *study.Study) { Table4(w, core.TopASNs(s.Classified, s.World.Topo, 10)) })},
	{ID: "table5", Title: "Table 5: top 10 attacked NS-recorded IPs", File: "table5.txt",
		Write: plain(func(w io.Writer, s *study.Study) { Table5(w, s.Pipeline.TopIPs(s.Classified, 10)) })},
	{ID: "table6", Title: "Table 6: top 10 providers by worst Eq. 1 impact", File: "table6.txt",
		Write: plain(func(w io.Writer, s *study.Study) { Table6(w, core.MostAffected(s.Events, 10)) })},
	{ID: "figure2_dec", Title: "Figure 2 (December): TransIP RTT series, attack -2h/+10h", File: "figure2_dec.csv",
		Write: plain(func(w io.Writer, s *study.Study) {
			cs := s.Schedule.CaseStudies
			Figure2(w, "TransIP December 2020", transIPSeries(s, cs.TransIPDecStart.Add(-2*time.Hour), cs.TransIPDecEnd.Add(10*time.Hour)))
		})},
	{ID: "figure2_mar", Title: "Figure 2 (March): TransIP RTT series, attack -2h/+10h", File: "figure2_mar.csv",
		Write: plain(func(w io.Writer, s *study.Study) {
			cs := s.Schedule.CaseStudies
			Figure2(w, "TransIP March 2021", transIPSeries(s, cs.TransIPMarStart.Add(-2*time.Hour), cs.TransIPMarEnd.Add(10*time.Hour)))
		})},
	{ID: "figure3", Title: "Figure 3: TransIP timeout share, March attack -2h/+6h", File: "figure3.csv",
		Write: plain(func(w io.Writer, s *study.Study) {
			cs := s.Schedule.CaseStudies
			Figure3(w, "TransIP March 2021", transIPSeries(s, cs.TransIPMarStart.Add(-2*time.Hour), cs.TransIPMarEnd.Add(6*time.Hour)))
		})},
	{ID: "figure5", Title: "Figure 5: domains with a nameserver under attack, by month", File: "figure5.csv",
		Write: plain(func(w io.Writer, s *study.Study) { Figure5(w, s.Pipeline.MonthlyAffectedDomains(s.Classified)) })},
	{ID: "figure6", Title: "Figure 6: protocols and ports, all DNS-infrastructure attacks", File: "figure6.csv",
		Write: plain(func(w io.Writer, s *study.Study) { Figure6(w, core.PortDistribution(s.Classified, nil)) })},
	{ID: "ports_failing", Title: "§6.3.1: protocols and ports, failure-causing attacks only", File: "ports_failing.csv",
		Write: plain(func(w io.Writer, s *study.Study) {
			Figure6(w, core.PortDistribution(s.Classified, core.FailingAttacks(s.Events)))
		})},
	{ID: "figure7", Title: "Figure 7: failure rate vs hosted domains", File: "figure7.csv",
		Write: plain(func(w io.Writer, s *study.Study) {
			Scatter(w, "Figure 7", "hosted_domains", "failure_pct", core.FailureScatter(s.Events))
		}),
		Notes: func(w io.Writer, s *study.Study) { FailureBreakdown(w, core.BreakdownFailures(s.Events)) }},
	{ID: "figure8", Title: "Figure 8: RTT impact vs hosted domains", File: "figure8.csv",
		Write: plain(func(w io.Writer, s *study.Study) {
			Scatter(w, "Figure 8", "hosted_domains", "impact_x", core.ImpactScatter(s.Events))
		}),
		Notes: func(w io.Writer, s *study.Study) {
			Groups(w, "Events with an impact", []core.GroupImpact{core.ImpactOverall(s.Events)})
		}},
	{ID: "figure9", Title: "Figure 9: RTT impact vs telescope intensity", File: "figure9.csv",
		Write: plain(func(w io.Writer, s *study.Study) { Correlation(w, "Figure 9", core.IntensityCorrelation(s.Events)) }),
		Notes: func(w io.Writer, s *study.Study) { IntensityModes(w, core.IntensityHistogram(s.Events)) }},
	{ID: "figure10", Title: "Figure 10: RTT impact vs attack duration", File: "figure10.csv",
		Write: plain(func(w io.Writer, s *study.Study) { Correlation(w, "Figure 10", core.DurationCorrelation(s.Events)) }),
		Notes: func(w io.Writer, s *study.Study) { DurationModes(w, core.DurationHistogram(s.Classified, 180)) }},
	{ID: "figure11", Title: "Figure 11: impact by anycast class", File: "figure11.csv",
		Write: plain(func(w io.Writer, s *study.Study) { Groups(w, "Figure 11", core.ImpactByAnycast(s.Events)) })},
	{ID: "figure12", Title: "Figure 12: impact by AS diversity", File: "figure12.csv",
		Write: plain(func(w io.Writer, s *study.Study) { Groups(w, "Figure 12", core.ImpactByASDiversity(s.Events)) })},
	{ID: "figure13", Title: "Figure 13: impact by /24 prefix diversity", File: "figure13.csv",
		Write: plain(func(w io.Writer, s *study.Study) { Groups(w, "Figure 13", core.ImpactByPrefixDiversity(s.Events)) })},
	{ID: "russia", Title: "§5.2: mil.ru and RZD through the reactive platform", File: "russia.txt", Write: russia,
		Notes: russiaAvailability},
	{ID: "reactive", Title: "§4.3.1: reactive platform, first 20 DNS-direct attacks through the watcher", File: "reactive.txt", Write: reactiveTrigger},
	{ID: "ablation_snapshot", Title: "Ablation: previous-day vs same-day NS snapshot", File: "ablation_snapshot.csv", Write: ablationSnapshot},
	{ID: "ablation_baseline", Title: "Ablation: Eq. 1 baseline a day vs a week before", File: "ablation_baseline.csv", Write: ablationBaseline},
	{ID: "ablation_mindomains", Title: "Ablation: the measured-domains noise filter", File: "ablation_mindomains.csv", Write: ablationMinDomains},
	{ID: "ablation_openres", Title: "Ablation: the open-resolver filter", File: "ablation_openres.csv", Write: ablationOpenRes},
	{ID: "ablation_strategy", Title: "Ablation: agnostic vs NS-exhaustive resolution", File: "ablation_strategy.csv", Write: ablationStrategy},
	{ID: "ablation_delegation", Title: "Ablation: following stale parent delegations", File: "ablation_delegation.csv", Write: ablationDelegation},
	{ID: "caching", Title: "Extension: end-user caching under the March TransIP attack", File: "caching.csv", Write: caching},
	{ID: "feeds", Title: "Extension: joint RSDoS and AmpPot feeds", File: "feeds.csv", Write: feeds},
	{ID: "vantage", Title: "Extension: multi-vantage catchment", File: "vantage.csv", Write: vantage},
	{ID: "popularity", Title: "Extension: popularity vs caching", File: "popularity.csv", Write: popularity},
	{ID: "resilience", Title: "Extension: §6.6 deployment resilience", File: "resilience.csv", Write: resilience},
}

func transIPSeries(s *study.Study, from, to time.Time) []core.RTTSample {
	return s.Pipeline.SeriesFor(nsset.KeyOf(s.Schedule.CaseStudies.TransIPNS[:]), from, to)
}

// table2 extracts the per-nameserver telescope metrics of the two scripted
// TransIP attacks from the inferred feed.
func table2(w io.Writer, s *study.Study) error {
	cs := s.Schedule.CaseStudies
	labels := map[netx.Addr]string{}
	for i, a := range cs.TransIPNS {
		labels[a] = string(rune('A' + i))
	}
	scale := s.Telescope.ScaleFactor()
	var rows []Table2Row
	add := func(name string, from, to time.Time) {
		for _, a := range s.Attacks {
			l, ok := labels[a.Victim]
			if !ok || !a.Overlaps(from, to) {
				continue
			}
			rows = append(rows, Table2Row{
				Attack:      name,
				NS:          l,
				PeakPPM:     a.PeakPPM,
				InferredPPS: a.InferredVictimPPS(scale),
				Gbps:        a.InferredGbps(scale, 1400),
				AttackerIPs: a.InferredAttackerIPs(scale),
			})
		}
	}
	add("Dec 2020", cs.TransIPDecStart, cs.TransIPDecEnd)
	add("Mar 2021", cs.TransIPMarStart, cs.TransIPMarEnd)
	if len(rows) < 4 {
		return errors.New("TransIP attacks not inferred from telescope data")
	}
	Table2(w, rows)
	return nil
}

// transIPReach is §5.1's reach of the December attack on TransIP's first
// nameserver: the domains it hosts, their top TLDs, and how many keep
// their web server elsewhere and so lose only DNS.
func transIPReach(w io.Writer, s *study.Study) {
	cs := s.Schedule.CaseStudies
	for _, ca := range s.Classified {
		if ca.Victim != cs.TransIPNS[0] || ca.Class != core.ClassDNSDirect || !ca.Overlaps(cs.TransIPDecStart, cs.TransIPDecEnd) {
			continue
		}
		fmt.Fprintf(w, "# §5.1 reach of the attack on NS A\ndomains_under_attack,%d\n", s.Pipeline.DomainsUnderAttack(ca))
		for i, t := range s.Pipeline.AffectedTLDs(ca) {
			if i == 3 {
				break
			}
			fmt.Fprintf(w, "tld_share,.%s,%.2f\n", t.TLD, t.Share)
		}
		n, share := s.Pipeline.ThirdPartyWebShare(ca)
		fmt.Fprintf(w, "third_party_web,%d\nthird_party_web_share,%.2f\n", n, share)
		return
	}
}

// russiaCampaigns finds the two §5.2 case-study attacks in the feed and
// drives each through one reactive platform, mil.ru first.
func russiaCampaigns(s *study.Study) (mil, rzd *reactive.Campaign, err error) {
	cs := s.Schedule.CaseStudies
	milAttack, okMil := rsdos.FirstOn(s.Attacks, cs.MilRuNS, cs.MilRuStart, cs.MilRuEnd)
	rzdAttack, okRzd := rsdos.FirstOn(s.Attacks, cs.RZDNS, cs.RZDStart, cs.RZDEnd)
	if !okMil || !okRzd {
		return nil, nil, errors.New("case-study attacks not inferred from telescope data")
	}
	platform := reactive.NewPlatform(reactive.DefaultConfig(), s.World.DB, s.Resolver, rand.New(rand.NewPCG(5, 5)))
	return platform.React(milAttack), platform.React(rzdAttack), nil
}

// russia reports the two §5.2 case-study campaigns: mil.ru stays
// unresolvable for the whole attack, RZD recovers the morning after; the
// Telegram post (Fig. 4) is the timeline annotation.
func russia(w io.Writer, s *study.Study) error {
	mil, rzd, err := russiaCampaigns(s)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# mil.ru: attack %s..%s, probes=%d, unresolvable_during_attack=%v\n",
		mil.Attack.Start().Format(time.RFC3339), mil.Attack.End().Format(time.RFC3339),
		len(mil.Probes), mil.UnresolvableDuringAttack())
	rec, ok := rzd.RecoveryTime(0.5)
	fmt.Fprintf(w, "# rzd.ru: attack %s..%s, telegram_post=%s (start+12m), recovered=%v at %s\n",
		rzd.Attack.Start().Format(time.RFC3339), rzd.Attack.End().Format(time.RFC3339),
		s.Schedule.CaseStudies.RZDTelegram.Format(time.RFC3339), ok, rec.Format(time.RFC3339))
	return nil
}

// russiaAvailability prints the campaigns' availability over time: mil.ru
// by day, RZD by hour, and RZD's hourly spread across the standard probe
// vantages (§9: what a single vantage cannot see).
func russiaAvailability(w io.Writer, s *study.Study) {
	mil, rzd, err := russiaCampaigns(s)
	if err != nil {
		return // russia's Write has reported it
	}
	availability := func(title, layout string, c *reactive.Campaign) {
		fmt.Fprintf(w, "# %s\nperiod,availability_pct,probes\n", title)
		var period string
		var ok, total int
		flush := func() {
			if total > 0 {
				fmt.Fprintf(w, "%s,%.1f,%d\n", period, 100*float64(ok)/float64(total), total)
			}
		}
		for _, wa := range c.Availability() {
			if p := wa.Window.Start().Format(layout); p != period {
				flush()
				period, ok, total = p, 0, 0
			}
			ok += wa.OK
			total += wa.Total
		}
		flush()
	}
	availability("mil.ru availability by day", "2006-01-02", mil)
	fmt.Fprintln(w)
	availability("rzd.ru availability by hour", "2006-01-02 15:00", rzd)
	fmt.Fprintln(w)

	vantages := reactive.StandardVantages()
	vp := reactive.NewVantagePlatform(reactive.DefaultConfig(), s.World.DB, s.Net, s.Config.Resolver, vantages, rand.New(rand.NewPCG(12, 12)))
	fmt.Fprintf(w, "# rzd.ru availability spread across %d vantages by hour\nperiod,worst_pct,best_pct\n", len(vantages))
	var hour string
	var lo, hi float64
	flush := func() {
		if hour != "" {
			fmt.Fprintf(w, "%s,%.1f,%.1f\n", hour, lo*100, hi*100)
		}
	}
	for _, d := range reactive.Disagreements(vp.React(rzd.Attack)) {
		if h := d.Window.Start().Format("2006-01-02 15:00"); h != hour {
			flush()
			hour, lo, hi = h, d.Min, d.Max
		}
		lo, hi = min(lo, d.Min), max(hi, d.Max)
	}
	flush()
}

// reactiveTrigger feeds a sample of DNS-direct attacks through the
// platform's watch and reports the §4.3.1 trigger delay.
func reactiveTrigger(w io.Writer, s *study.Study) error {
	var sample []rsdos.Attack
	for _, ca := range s.Classified {
		if ca.Class == core.ClassDNSDirect && len(sample) < 20 {
			sample = append(sample, *ca.Attack)
		}
	}
	if len(sample) == 0 {
		return errors.New("no DNS-direct attacks")
	}
	platform := reactive.NewPlatform(reactive.DefaultConfig(), s.World.DB, s.Resolver, rand.New(rand.NewPCG(6, 6)))
	campaigns := platform.Watch(sample)
	var probes int
	var worstDelay time.Duration
	for _, c := range campaigns {
		probes += len(c.Probes)
		worstDelay = max(worstDelay, c.Triggered.Sub(c.Attack.Start()))
	}
	fmt.Fprintf(w, "# reactive: campaigns=%d probes=%d worst_trigger_delay=%s (<=10m)\n", len(campaigns), probes, worstDelay)
	return nil
}
