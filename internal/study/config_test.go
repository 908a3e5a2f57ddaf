package study

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"strings"
	"testing"
	"time"
)

// WriteConfig serializes a configuration as indented JSON, the form
// ReadConfig parses.
func WriteConfig(w io.Writer, cfg Config) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(cfg)
}

func TestConfigJSONRoundTrip(t *testing.T) {
	cfg := QuickConfig()
	cfg.World.Domains = 1234
	cfg.Attacks.TotalAttacks = 999
	var buf bytes.Buffer
	if err := WriteConfig(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	got, err := ReadConfig(&buf, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got.World.Domains != 1234 || got.Attacks.TotalAttacks != 999 {
		t.Errorf("round trip lost overrides: %+v", got.World)
	}
	if got.Pipeline.MinMeasuredDomains != cfg.Pipeline.MinMeasuredDomains {
		t.Error("nested defaults lost")
	}
}

func TestReadConfigPartialOverride(t *testing.T) {
	in := `{"World": {"Domains": 777}}`
	got, err := ReadConfig(strings.NewReader(in), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got.World.Domains != 777 {
		t.Errorf("Domains = %d", got.World.Domains)
	}
	// everything else keeps the base values... note that nested structs
	// decode field-by-field onto the base, so siblings survive
	if got.World.GenericProviders != DefaultConfig().World.GenericProviders {
		t.Errorf("GenericProviders = %d, want base value", got.World.GenericProviders)
	}
	if got.Attacks.TotalAttacks != DefaultConfig().Attacks.TotalAttacks {
		t.Error("Attacks lost base values")
	}
}

func TestReadConfigRejectsUnknownFields(t *testing.T) {
	if _, err := ReadConfig(strings.NewReader(`{"Wrold": {}}`), DefaultConfig()); err == nil {
		t.Error("typo'd field should be rejected")
	}
}

func TestValidate(t *testing.T) {
	if err := Validate(DefaultConfig()); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if err := Validate(QuickConfig()); err != nil {
		t.Fatalf("quick config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.World.Domains = 0 },
		func(c *Config) { c.World.AnycastRecall = 1.5 },
		func(c *Config) { c.World.MisconfiguredShare = -0.1 },
		func(c *Config) { c.Attacks.TotalAttacks = -1 },
		func(c *Config) { c.Attacks.DNSShare = 2 },
		func(c *Config) { c.FromDay, c.ToDay = 10, 5 },
		func(c *Config) { c.ToDay = 100000 },
		func(c *Config) { c.Resolver.MaxTries = 0 },
		func(c *Config) { c.Net.ScrubEfficiency = -1 },
		func(c *Config) { c.World.MisconfiguredShare = math.NaN() },
		func(c *Config) { c.World.AnycastRecall = math.NaN() },
		func(c *Config) { c.Attacks.DNSShare = math.NaN() },
		func(c *Config) { c.Net.ScrubEfficiency = math.NaN() },
		func(c *Config) { c.Parallelism = -1 },
		func(c *Config) { c.WindowMarginBefore = -time.Hour },
		func(c *Config) { c.WindowMarginAfter = -time.Second },
		func(c *Config) { c.Pipeline.MinMeasuredDomains = -1 },
		func(c *Config) { c.Pipeline.BaselineDaysBack = -7 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := Validate(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// TestValidateErrorsNameField guards the debuggability contract: a bad
// value must be reported by field name, not as a panic deep in the run.
func TestValidateErrorsNameField(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Parallelism = -3
	err := Validate(cfg)
	if err == nil || !strings.Contains(err.Error(), "Parallelism") {
		t.Errorf("error %v does not name the field", err)
	}
	cfg = DefaultConfig()
	cfg.World.MisconfiguredShare = math.NaN()
	err = Validate(cfg)
	if err == nil || !strings.Contains(err.Error(), "World.MisconfiguredShare") {
		t.Errorf("error %v does not name the field", err)
	}
}

// TestRunContextRejectsInvalidConfig checks the fail-fast path: an
// invalid config must come back as an error in milliseconds, before any
// world generation or sweeping.
func TestRunContextRejectsInvalidConfig(t *testing.T) {
	cfg := QuickConfig()
	cfg.World.Domains = 0
	if _, err := RunContext(context.Background(), cfg); err == nil {
		t.Fatal("invalid config accepted by RunContext")
	}
}
