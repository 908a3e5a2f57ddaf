// Package cli holds what the study-running commands (joinpipe, report,
// streamjoin) share, so each main.go declares only its own flags: the
// study-configuration flags, the -metrics-addr endpoint, and the
// quarantined-day table on stderr.
package cli

import (
	"flag"
	"fmt"
	"os"

	"dnsddos/internal/obs"
	"dnsddos/internal/report"
	"dnsddos/internal/study"
)

// Flags are the shared command-line flags of one command.
type Flags struct {
	prog        string
	quick       *bool
	domains     *int
	attacks     *int
	config      *string // nil when the command takes no -config
	metricsAddr *string
}

// Register declares -quick (with the command's own default), -domains,
// -attacks, -metrics-addr and, if withConfig, -config on the default flag
// set. Call it before flag.Parse.
func Register(prog string, quickDefault, withConfig bool) *Flags {
	f := &Flags{
		prog:        prog,
		quick:       flag.Bool("quick", quickDefault, "use the scaled-down quick configuration"),
		domains:     flag.Int("domains", 0, "override world size"),
		attacks:     flag.Int("attacks", 0, "override attack count"),
		metricsAddr: flag.String("metrics-addr", "", "serve /metrics.json and /debug/pprof/ on this address while the run is in flight (empty disables)"),
	}
	if withConfig {
		f.config = flag.String("config", "", "JSON study configuration (overrides -quick)")
	}
	return f
}

// Config resolves the parsed flags into a study configuration: the default
// or quick preset, overlaid by the -config file, then by -domains and
// -attacks.
func (f *Flags) Config() (study.Config, error) {
	cfg := study.DefaultConfig()
	if *f.quick {
		cfg = study.QuickConfig()
	}
	if f.config != nil && *f.config != "" {
		file, err := os.Open(*f.config)
		if err != nil {
			return cfg, err
		}
		cfg, err = study.ReadConfig(file, cfg)
		file.Close()
		if err != nil {
			return cfg, err
		}
	}
	if *f.domains > 0 {
		cfg.World.Domains = *f.domains
	}
	if *f.attacks > 0 {
		cfg.Attacks.TotalAttacks = *f.attacks
	}
	return cfg, nil
}

// ServeMetrics starts the observability endpoint over reg when
// -metrics-addr is set, announcing it on stderr. The returned stop
// function is never nil.
func (f *Flags) ServeMetrics(reg *obs.Registry) (stop func(), err error) {
	if *f.metricsAddr == "" {
		return func() {}, nil
	}
	ms, err := obs.Serve(*f.metricsAddr, reg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "%s: observability on http://%s/metrics.json\n", f.prog, ms.Addr())
	return func() { ms.Close() }, nil
}

// ReportSkippedDays prints the run's quarantined day-shards, if any, as a
// table on stderr.
func ReportSkippedDays(s *study.Study) {
	if len(s.Report.SkippedDays) == 0 {
		return
	}
	report.SkippedDays(os.Stderr, s.Report.SkippedDays)
}
