package core_test

import (
	"context"
	"io"
	"testing"

	"dnsddos/internal/daystore"
	"dnsddos/internal/study"
)

// warmJoinFixed bounds what a warm join allocates besides the emitted
// events' ASN lists: the classification memo's growth, the result slice's
// and the window scratch's — a few dozen objects at this feed's size.
const warmJoinFixed = 32

// TestWarmJoinAllocs: once the sealed days' views are open, a whole join
// allocates at most one object per emitted event (its ASN list) plus
// warmJoinFixed — nothing per attack, per (attack, NSSet) pair, per day
// read or per window.
func TestWarmJoinAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	ctx := context.Background()
	dir := t.TempDir()
	cfg := transipConfig()
	cfg.Attacks.DNSShare = 0.3 // several hundred DNS-direct attacks, most joined to no event
	s, err := study.RunContext(ctx, cfg, study.WithDayStoreDir(dir), study.WithSkipJoin())
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := s.Pipeline.DayStore().(io.Closer); ok {
		c.Close()
	}
	set, err := daystore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	p := s.NewPipeline(set, nil, nil)

	// the first join opens the day views
	events, err := p.EventsContext(ctx, s.Attacks)
	if err != nil || len(events) == 0 {
		t.Fatalf("join: %d events, err %v; want some", len(events), err)
	}
	n := testing.AllocsPerRun(5, func() { p.EventsContext(ctx, s.Attacks) })
	if n > float64(len(events)+warmJoinFixed) {
		t.Errorf("a warm join emitting %d events over %d attacks allocates %v times, want ≤ %d", len(events), len(s.Attacks), n, len(events)+warmJoinFixed)
	}
	t.Logf("%d events over %d attacks: %v allocations", len(events), len(s.Attacks), n)
}
