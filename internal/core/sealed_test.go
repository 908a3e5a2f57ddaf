package core_test

import (
	"context"
	"io"
	"testing"

	"dnsddos/internal/core"
	"dnsddos/internal/daystore"
	"dnsddos/internal/study"
)

// TestWarmShardJoinAllocs: a pool worker that has joined the plan once —
// day views open, window scratch and event buffer grown — joins it again
// over the sealed days allocating at most one object per emitted event
// (the event's ASN list): nothing per shard, per (attack, NSSet) pair, per
// day read or per window.
func TestWarmShardJoinAllocs(t *testing.T) {
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
	p := s.Session().NewPipeline(s.Agg, nil, nil, core.WithDayStore(set))

	var w core.Worker
	events := w.JoinAll(ctx, p, s.Attacks)
	if want, err := p.EventsContext(ctx, s.Attacks); err != nil || events != len(want) || events == 0 {
		t.Fatalf("one worker joined %d events, the pool %d (err %v); want equal and non-zero", events, len(want), err)
	}
	if n := testing.AllocsPerRun(5, func() { w.JoinAll(ctx, p, s.Attacks) }); n > float64(events) {
		t.Errorf("a warm worker emitting %d events allocates %v times, want ≤ one per event", events, n)
	}
}
