// Command russia reproduces the §5.2 case studies: the March 2022 attacks
// against Russian government infrastructure shortly after the invasion of
// Ukraine — mil.ru (Ministry of Defense) and the RDZ railways — measured
// with the reactive NS-exhaustive probing platform (§4.3.1).
//
// Run with:
//
//	go run ./examples/russia
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand/v2"
	"time"

	"dnsddos/internal/clock"
	"dnsddos/internal/reactive"
	"dnsddos/internal/rsdos"
	"dnsddos/internal/study"
)

func main() {
	cfg := study.QuickConfig()
	// only the RSDoS/telescope side and the reactive prober are needed;
	// restrict the daily sweep to March 2022 for speed
	cfg.FromDay = dayOf(2022, 3, 1)
	cfg.ToDay = dayOf(2022, 3, 25)
	fmt.Println("running Russian-infrastructure case studies (March 2022)...")
	s, err := study.RunContext(context.Background(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	cs := s.Schedule.CaseStudies

	platform := reactive.NewPlatform(reactive.DefaultConfig(), s.World.DB, s.Resolver, rand.New(rand.NewPCG(11, 11)))

	fmt.Println("\n== mil.ru (Ministry of Defense) ==")
	fmt.Printf("three nameservers, all on %s (single /24, single ASN, unicast)\n", cs.MilRuNS[0].Slash24())
	if a, ok := rsdos.FirstOn(s.Attacks, cs.MilRuNS, cs.MilRuStart, cs.MilRuEnd); ok {
		fmt.Printf("RSDoS inference: under attack %s .. %s (%.1f days)\n",
			a.Start().Format("Jan 2 15:04"), a.End().Format("Jan 2 15:04"), a.Duration().Hours()/24)
		c := platform.React(a)
		fmt.Printf("reactive probing: %d probes across %d domains\n", len(c.Probes), len(c.Domains))
		fmt.Printf("domain unresolvable for the whole attack: %v\n", c.UnresolvableDuringAttack())
		fmt.Println("(the operator geofenced the network from March 12; our NL vantage sees a blackout)")
		printDaily(c)
	} else {
		fmt.Println("attack not found in feed")
	}

	fmt.Println("\n== RDZ railways ==")
	if a, ok := rsdos.FirstOn(s.Attacks, cs.RZDNS, cs.RZDStart, cs.RZDEnd); ok {
		fmt.Printf("RSDoS inference: under attack %s .. %s\n",
			a.Start().Format("Jan 2 15:04"), a.End().Format("Jan 2 15:04"))
		fmt.Printf("IT-ARMY Telegram channel posted the 3 NS IPs at %s — 12 minutes after the inferred start\n",
			cs.RZDTelegram.Format("Jan 2 15:04"))
		c := platform.React(a)
		if rec, ok := c.RecoveryTime(0.5); ok {
			fmt.Printf("reactive probing: domain recovered to >=50%% availability at %s (attack ended %s)\n",
				rec.Format("Jan 2 15:04"), a.End().Format("Jan 2 15:04"))
		} else {
			fmt.Println("reactive probing: no recovery within the 24h campaign")
		}
		printHourlyAvailability(c)

		// §9 future work: the same campaign from multiple vantage
		// points, exposing what a single vantage cannot see
		fmt.Println("\nmulti-vantage view (availability spread per hour):")
		vp := reactive.NewVantagePlatform(reactive.DefaultConfig(), s.World.DB, s.Net,
			s.Config.Resolver, reactive.StandardVantages(), rand.New(rand.NewPCG(12, 12)))
		campaigns := vp.React(a)
		printDisagreements(reactive.Disagreements(campaigns))
	} else {
		fmt.Println("attack not found in feed")
	}
}

// printDisagreements condenses per-window vantage spreads into hourly rows.
func printDisagreements(dis []reactive.VantageDisagreement) {
	type agg struct {
		min, max float64
		n        int
	}
	hours := map[string]*agg{}
	var order []string
	for _, d := range dis {
		h := d.Window.Start().Format("01-02 15:00")
		a := hours[h]
		if a == nil {
			a = &agg{min: 1}
			hours[h] = a
			order = append(order, h)
		}
		a.min = minF(a.min, d.Min)
		a.max = maxF(a.max, d.Max)
		a.n++
	}
	for i, h := range order {
		if i >= 8 {
			fmt.Printf("  ... (%d more hours)\n", len(order)-i)
			break
		}
		a := hours[h]
		fmt.Printf("  %s  worst vantage %5.1f%%  best vantage %5.1f%%\n", h, a.min*100, a.max*100)
	}
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func dayOf(y int, m time.Month, d int) clock.Day {
	return clock.DayOf(time.Date(y, m, d, 0, 0, 0, 0, time.UTC))
}

// printDaily prints one availability line per day of the campaign.
func printDaily(c *reactive.Campaign) {
	type agg struct{ ok, total int }
	days := map[string]*agg{}
	var order []string
	for _, wa := range c.Availability() {
		d := wa.Window.Start().Format("2006-01-02")
		a := days[d]
		if a == nil {
			a = &agg{}
			days[d] = a
			order = append(order, d)
		}
		a.ok += wa.OK
		a.total += wa.Total
	}
	for _, d := range order {
		a := days[d]
		fmt.Printf("  %s  availability %5.1f%%  (%d probes)\n", d, 100*float64(a.ok)/float64(a.total), a.total)
	}
}

// printHourlyAvailability prints one line per hour of the campaign.
func printHourlyAvailability(c *reactive.Campaign) {
	type agg struct{ ok, total int }
	hours := map[string]*agg{}
	var order []string
	for _, wa := range c.Availability() {
		h := wa.Window.Start().Format("01-02 15:00")
		a := hours[h]
		if a == nil {
			a = &agg{}
			hours[h] = a
			order = append(order, h)
		}
		a.ok += wa.OK
		a.total += wa.Total
	}
	for _, h := range order {
		a := hours[h]
		bar := ""
		n := int(20 * float64(a.ok) / float64(a.total))
		for i := 0; i < n; i++ {
			bar += "#"
		}
		fmt.Printf("  %s  %5.1f%% %s\n", h, 100*float64(a.ok)/float64(a.total), bar)
	}
}
