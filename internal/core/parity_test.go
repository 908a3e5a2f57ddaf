package core_test

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"dnsddos/internal/clock"
	"dnsddos/internal/core"
	"dnsddos/internal/report"
	"dnsddos/internal/study"
)

// parity_test.go is the contract test for the join engine: on a seeded
// study world EventsContext and the reference linear scan
// (legacy_test.go) must emit byte-identical events. Three configurations cover the interesting regimes — the
// TransIP window, a skewed small world with different seeds, and a run
// with a quarantined day (where the join falls back across missing
// snapshots, §4.2). It lives in the external test package because it
// drives the engine through internal/study, which imports core.

// transipConfig spans the TransIP December attack (days 27–31) so the
// event join has real work to do.
func transipConfig() study.Config {
	cfg := study.QuickConfig()
	cfg.World.Domains = 2500
	cfg.Attacks.TotalAttacks = 2500
	cfg.FromDay, cfg.ToDay = 27, 33
	return cfg
}

func eventsCSV(t *testing.T, events []core.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := report.EventsCSV(&buf, events); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// runBothEngines runs the study (indexed join), re-joins the same feed
// over the same pipeline with the reference scan, and asserts
// byte-identical events CSV.
func runBothEngines(t *testing.T, cfg study.Config, extra ...study.Option) {
	t.Helper()
	s, err := study.RunContext(context.Background(), cfg, extra...)
	if err != nil {
		t.Fatalf("study run: %v", err)
	}
	if len(s.Events) == 0 {
		t.Fatal("join engine joined no events; the comparison would be vacuous")
	}
	legacy, err := core.EventsLegacy(context.Background(), s.Pipeline, s.Attacks)
	if err != nil {
		t.Fatalf("reference scan: %v", err)
	}
	if !bytes.Equal(eventsCSV(t, s.Events), eventsCSV(t, legacy)) {
		t.Error("join engine and reference scan emitted different events")
	}
}

// TestJoinEngineParity is the acceptance gate for the join engine:
// same world, same schedule, same events — byte for byte — as the
// reference scan.
func TestJoinEngineParity(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}

	t.Run("transip_window", func(t *testing.T) {
		runBothEngines(t, transipConfig())
	})

	t.Run("reseeded_small_world", func(t *testing.T) {
		cfg := study.QuickConfig()
		cfg.World.Domains = 1800
		cfg.World.GenericProviders = 25
		cfg.World.Seed = 1013
		cfg.Attacks.TotalAttacks = 2200
		cfg.Attacks.Seed = 77
		cfg.MeasureSeed = 9001
		cfg.FromDay, cfg.ToDay = 20, 75
		runBothEngines(t, cfg)
	})

	// quarantined day: a deterministically panicking shard is retried
	// once and quarantined, so both joins must fall back to the nearest
	// earlier measurable day for it — identically.
	t.Run("quarantined_day", func(t *testing.T) {
		cfg := transipConfig()
		cfg.Parallelism = 1
		target := clock.Day(29)
		var mu sync.Mutex
		runBothEngines(t, cfg, study.WithBeforeDay(func(d clock.Day) {
			if d == target {
				mu.Lock()
				defer mu.Unlock()
				panic("injected parity fault")
			}
		}))
	})
}
