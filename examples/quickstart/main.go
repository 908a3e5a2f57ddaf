// Command quickstart is the smallest end-to-end tour of the library: build
// a synthetic DNS world, run the 17-month attack schedule through the
// telescope and the RSDoS inference, sweep the OpenINTEL measurements, join
// the two datasets, and print the headline results — which attacks hit DNS
// infrastructure and what they did to resolution performance.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"dnsddos/internal/core"
	"dnsddos/internal/report"
	"dnsddos/internal/study"
)

func main() {
	cfg := study.QuickConfig()
	fmt.Printf("running quick study: %d domains, %d attacks over 17 months...\n",
		cfg.World.Domains, cfg.Attacks.TotalAttacks)
	s, err := study.RunContext(context.Background(), cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\ntelescope inferred %d RSDoS attacks; %d joined events on DNS NSSets\n\n",
		len(s.Attacks), len(s.Events))

	report.Table1(os.Stdout, core.SummarizeDataset(s.Attacks, s.World.Topo))
	fmt.Println()
	report.Table4(os.Stdout, core.TopASNs(s.Classified, s.World.Topo, 5))
	fmt.Println()
	report.Table6(os.Stdout, core.MostAffected(s.Events, 5))
	fmt.Println()

	fb := core.BreakdownFailures(s.Events)
	fmt.Printf("of %d joined attack events: %d caused resolution failures (%d complete)\n",
		fb.Events, fb.WithFailures, fb.CompleteFails)
	var over10 int
	for _, e := range s.Events {
		if e.HasImpact && e.Impact >= 10 {
			over10++
		}
	}
	fmt.Printf("%d events showed a >=10x increase in resolution time (Eq. 1)\n", over10)
	fmt.Println()
	report.Groups(os.Stdout, "resilience: impact by anycast class (Fig. 11)", core.ImpactByAnycast(s.Events))
}
