// Command transip reproduces the §5.1 case study: the December 2020 and
// March 2021 DDoS attacks against TransIP, a large Dutch DNS and hosting
// provider with three unicast nameservers behind a single ASN.
//
// It prints the Table 2 telescope metrics, the Figure 2 RTT time series
// (including the December impairment overhang and the scrubbing-bounded
// March window), and the Figure 3 timeout plateau.
//
// Run with:
//
//	go run ./examples/transip
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"dnsddos/internal/clock"
	"dnsddos/internal/core"
	"dnsddos/internal/nsset"
	"dnsddos/internal/report"
	"dnsddos/internal/study"
)

func main() {
	cfg := study.QuickConfig()
	// measure only the days around the two attacks: the join needs the
	// day before each attack for the Eq. 1 baseline and the NS snapshot
	cfg.FromDay = clock.DayOf(time.Date(2020, 11, 28, 0, 0, 0, 0, time.UTC))
	cfg.ToDay = clock.DayOf(time.Date(2021, 3, 5, 0, 0, 0, 0, time.UTC))
	fmt.Println("running TransIP case study (measuring Nov 28 2020 .. Mar 5 2021)...")
	s, err := study.RunContext(context.Background(), cfg)
	if err != nil {
		log.Fatal(err)
	}

	cs := s.Schedule.CaseStudies
	k := nsset.KeyOf(cs.TransIPNS[:])
	scale := s.Telescope.ScaleFactor()

	// §5.1: attack reach and hosting profile of the affected domains
	if cas := s.Pipeline.Classify(s.Attacks); len(cas) > 0 {
		for _, ca := range cas {
			if ca.Victim != cs.TransIPNS[0] || ca.Class != core.ClassDNSDirect {
				continue
			}
			fmt.Printf("\ndomains potentially affected: %d\n", s.Pipeline.DomainsUnderAttack(ca))
			fmt.Print("TLD breakdown:")
			for i, t := range s.Pipeline.AffectedTLDs(ca) {
				if i >= 3 {
					break
				}
				fmt.Printf(" .%s %.0f%%", t.TLD, t.Share*100)
			}
			n, share := s.Pipeline.ThirdPartyWebShare(ca)
			fmt.Printf("\nthird-party web hosting: %d domains (%.0f%%) — these only lose DNS, not their web server\n", n, share*100)
			break
		}
	}

	fmt.Println("\n== inferred attacks on the three TransIP nameservers ==")
	for _, a := range s.Attacks {
		for i, addr := range cs.TransIPNS {
			if a.Victim != addr {
				continue
			}
			fmt.Printf("NS %c: %s .. %s  peak %.1f Kppm at telescope (≈%.0f Kpps at victim), est. %.2fM attacker IPs\n",
				'A'+i, a.Start().Format("2006-01-02 15:04"), a.End().Format("2006-01-02 15:04"),
				a.PeakPPM/1000, a.InferredVictimPPS(scale)/1000,
				float64(a.InferredAttackerIPs(scale))/1e6)
		}
	}

	fmt.Println("\n== Figure 2: resolution time around the December attack ==")
	dec := s.Pipeline.SeriesFor(k, cs.TransIPDecStart.Add(-2*time.Hour), cs.TransIPDecEnd.Add(10*time.Hour))
	printHourly(dec, cs.TransIPDecStart, cs.TransIPDecEnd)

	fmt.Println("\n== Figure 2/3: resolution time and timeouts around the March attack ==")
	mar := s.Pipeline.SeriesFor(k, cs.TransIPMarStart.Add(-2*time.Hour), cs.TransIPMarEnd.Add(10*time.Hour))
	printHourly(mar, cs.TransIPMarStart, cs.TransIPMarEnd)

	fmt.Println("\n== full 5-minute series (CSV) ==")
	report.Figure2(os.Stdout, "TransIP March 2021", mar)
}

// printHourly condenses the 5-minute series into hourly rows with an
// in-attack marker, the way Figure 2 marks attack hours with a red cross.
func printHourly(samples []core.RTTSample, start, end time.Time) {
	type hourAgg struct {
		sum      time.Duration
		n        int
		domains  int
		timeouts int
	}
	hours := map[time.Time]*hourAgg{}
	var order []time.Time
	for _, s := range samples {
		h := s.Window.Start().Truncate(time.Hour)
		a := hours[h]
		if a == nil {
			a = &hourAgg{}
			hours[h] = a
			order = append(order, h)
		}
		if s.AvgRTT > 0 {
			a.sum += s.AvgRTT
			a.n++
		}
		a.domains += s.Domains
		a.timeouts += s.Timeouts
	}
	for _, h := range order {
		a := hours[h]
		marker := " "
		if !h.Before(start.Truncate(time.Hour)) && h.Before(end) {
			marker = "x" // attack hour
		}
		avg := time.Duration(0)
		if a.n > 0 {
			avg = a.sum / time.Duration(a.n)
		}
		toPct := 0.0
		if a.domains > 0 {
			toPct = float64(a.timeouts) / float64(a.domains) * 100
		}
		fmt.Printf("%s [%s] avg RTT %8.2f ms  timeouts %5.1f%%  (%d domains)\n",
			h.Format("2006-01-02 15:00"), marker, float64(avg)/1e6, toPct, a.domains)
	}
}
