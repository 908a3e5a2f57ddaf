// Command reactive replays an RSDoS attack feed (CSV, as written by
// cmd/telescope or the joinpipe study) through the reactive measurement
// platform: every feed entry that maps to a known nameserver triggers a
// probing campaign (§4.3.1), and a per-campaign summary is printed.
//
// With no -feed argument it generates a quick study and reacts to its
// DNS-direct attacks.
//
// Usage:
//
//	reactive [-feed feed.csv] [-max N]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand/v2"
	"os"

	"dnsddos/internal/core"
	"dnsddos/internal/reactive"
	"dnsddos/internal/rsdos"
	"dnsddos/internal/study"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("reactive: ")
	feedPath := flag.String("feed", "", "RSDoS feed CSV to replay (default: generate a quick study)")
	maxCampaigns := flag.Int("max", 10, "max campaigns to run")
	flag.Parse()

	s, err := study.RunContext(context.Background(), study.QuickConfig())
	if err != nil {
		log.Fatal(err)
	}
	attacks := s.Attacks
	if *feedPath != "" {
		f, err := os.Open(*feedPath)
		if err != nil {
			log.Fatal(err)
		}
		var ferr error
		attacks, ferr = rsdos.ReadFeed(f)
		f.Close()
		if ferr != nil {
			log.Fatalf("reading feed: %v", ferr)
		}
	}

	platform := reactive.NewPlatform(reactive.DefaultConfig(), s.World.DB, s.Resolver, rand.New(rand.NewPCG(2, 2)))
	watcher := reactive.NewWatcher(platform)
	// the watcher simulates campaigns while earlier ones print; 16 lets it
	// run that far ahead
	results := make(chan *reactive.Campaign, 16)

	feed := make(chan rsdos.Attack)
	go func() {
		defer close(feed)
		n := 0
		for _, ca := range s.Pipeline.Classify(attacks) {
			if ca.Class != core.ClassDNSDirect {
				continue
			}
			if n >= *maxCampaigns {
				return
			}
			n++
			feed <- ca.Attack
		}
	}()
	go watcher.Run(feed, results)

	for c := range results {
		ok, total := 0, 0
		for _, p := range c.Probes {
			total++
			if p.RTT > 0 {
				ok++
			}
		}
		avail := 0.0
		if total > 0 {
			avail = 100 * float64(ok) / float64(total)
		}
		rec := "never"
		if t, found := c.RecoveryTime(0.5); found {
			rec = t.Format("01-02 15:04")
		}
		fmt.Printf("campaign victim=%s  %s..%s  trigger+%s  domains=%d probes=%d avail=%.1f%% recovered=%s\n",
			c.Attack.Victim,
			c.Attack.Start().Format("01-02 15:04"), c.Attack.End().Format("01-02 15:04"),
			c.Triggered.Sub(c.Attack.Start()).Round(1e9),
			len(c.Domains), len(c.Probes), avail, rec)
	}
}
