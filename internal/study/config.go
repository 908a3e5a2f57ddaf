package study

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"dnsddos/internal/clock"
)

// config.go provides JSON (de)serialization and validation for Config so
// the command-line tools can run studies from declarative files and whole
// experiment setups can be archived alongside their outputs.

// ReadConfig parses a JSON configuration. Missing fields keep the values of
// base (pass DefaultConfig() for the paper's settings), so a config file
// needs to spell out only what it overrides.
func ReadConfig(r io.Reader, base Config) (Config, error) {
	cfg := base
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return Config{}, fmt.Errorf("study: parsing config: %w", err)
	}
	if err := Validate(cfg); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// Validate rejects configurations that would run but produce meaningless
// studies (empty worlds, inverted day ranges, broken probabilities) or
// blow up hours into a run (NaN shares, negative parallelism). Every
// error names the offending field. RunContext validates before doing any
// work, so a bad config fails in milliseconds, not after the sweep.
func Validate(cfg Config) error {
	// NaN compares false against every bound, so range checks alone
	// would wave NaN through; check it explicitly for every ratio.
	fracs := []struct {
		name string
		v    float64
		max  float64
	}{
		{"World.MisconfiguredShare", cfg.World.MisconfiguredShare, 0.5},
		{"World.AnycastRecall", cfg.World.AnycastRecall, 1},
		{"World.InconsistentShare", cfg.World.InconsistentShare, 1},
		{"Attacks.DNSShare", cfg.Attacks.DNSShare, 1},
		{"Attacks.MultiVectorShare", cfg.Attacks.MultiVectorShare, 1},
		{"Net.ScrubEfficiency", cfg.Net.ScrubEfficiency, 1},
	}
	for _, f := range fracs {
		if math.IsNaN(f.v) || f.v < 0 || f.v > f.max {
			return fmt.Errorf("study: %s = %v out of [0, %g]", f.name, f.v, f.max)
		}
	}
	switch {
	case cfg.World.Domains <= 0:
		return fmt.Errorf("study: World.Domains = %d, must be positive", cfg.World.Domains)
	case cfg.World.GenericProviders < 0:
		return fmt.Errorf("study: World.GenericProviders = %d, must be non-negative", cfg.World.GenericProviders)
	case cfg.Attacks.TotalAttacks <= 0:
		return fmt.Errorf("study: Attacks.TotalAttacks = %d, must be positive", cfg.Attacks.TotalAttacks)
	case cfg.FromDay < 0 || cfg.ToDay >= clock.Day(clock.StudyDays()):
		return fmt.Errorf("study: day range [%d, %d] outside the %d-day study window", cfg.FromDay, cfg.ToDay, clock.StudyDays())
	case cfg.ToDay < cfg.FromDay:
		return fmt.Errorf("study: ToDay %d before FromDay %d (zero-span or inverted interval)", cfg.ToDay, cfg.FromDay)
	case cfg.Parallelism < 0:
		return fmt.Errorf("study: Parallelism = %d, must be non-negative (0 = all cores)", cfg.Parallelism)
	case cfg.WindowMarginBefore < 0:
		return fmt.Errorf("study: WindowMarginBefore = %v, must be non-negative", cfg.WindowMarginBefore)
	case cfg.WindowMarginAfter < 0:
		return fmt.Errorf("study: WindowMarginAfter = %v, must be non-negative", cfg.WindowMarginAfter)
	case cfg.Pipeline.MinMeasuredDomains < 0:
		return fmt.Errorf("study: Pipeline.MinMeasuredDomains = %d, must be non-negative", cfg.Pipeline.MinMeasuredDomains)
	case cfg.Pipeline.BaselineDaysBack < 0:
		return fmt.Errorf("study: Pipeline.BaselineDaysBack = %d, must be non-negative", cfg.Pipeline.BaselineDaysBack)
	case cfg.Resolver.MaxTries < 1:
		return fmt.Errorf("study: Resolver.MaxTries = %d, must be at least 1", cfg.Resolver.MaxTries)
	}
	return nil
}
