package core

import (
	"testing"
	"time"

	"dnsddos/internal/clock"
	"dnsddos/internal/nsset"
	"dnsddos/internal/rsdos"
)

// TestQuarantineFallbackJoinsPreviousDay exercises the §3.2-style join
// fallback: when the snapshot day's sweep was quarantined, the previous
// day's NS data stands in, so the event is not silently lost.
func TestQuarantineFallbackJoinsPreviousDay(t *testing.T) {
	w := buildWorld(t)
	agg := nsset.NewAggregator()
	attackW := clock.Day(40).FirstWindow() + 100
	// baseline exists only two days before the attack (day 38); day 39 —
	// the usual prev-day snapshot — has no measurements at all
	base := clock.Day(38).Start()
	for i := 0; i < 10; i++ {
		agg.Add(w.vulnKey, base.Add(time.Duration(i)*time.Hour), nsset.StatusOK, 10*time.Millisecond)
	}
	mid := attackW.Start().Add(time.Minute)
	for i := 0; i < 8; i++ {
		agg.Add(w.vulnKey, mid, nsset.StatusOK, 100*time.Millisecond)
	}
	for i := 0; i < 2; i++ {
		agg.Add(w.vulnKey, mid, nsset.StatusTimeout, 0)
	}
	atk := mkAttack(1, w.vulnNS[0], attackW, attackW+2, 53)

	// without quarantine info, day 39 has no baseline: the event is lost
	p := NewPipeline(w.db, WithDayStore(agg), WithCensus(w.census), WithTopology(w.topo), WithOpenResolvers(w.open))
	if got := len(p.Events([]rsdos.Attack{atk})); got != 0 {
		t.Fatalf("events without quarantine info = %d, want 0", got)
	}

	// marking day 39 quarantined lets the join fall back to day 38
	p2 := NewPipeline(w.db, WithDayStore(agg), WithCensus(w.census), WithTopology(w.topo), WithOpenResolvers(w.open))
	p2.SetQuarantinedDays([]clock.Day{39})
	events := p2.Events([]rsdos.Attack{atk})
	if len(events) != 1 {
		t.Fatalf("events with quarantined day = %d, want 1", len(events))
	}
	e := events[0]
	if e.NSSet != w.vulnKey || e.MeasuredDomains != 10 {
		t.Errorf("event identity: %+v", e)
	}
	// the Eq. 1 baseline falls back too: 100ms vs 10ms ≈ 10x
	if !e.HasImpact || e.Impact < 9.5 || e.Impact > 10.5 {
		t.Errorf("impact vs fallback baseline = %v (has %v), want ≈10", e.Impact, e.HasImpact)
	}
}

// TestQuarantineFallbackBounded checks the walk stops after
// maxQuarantineFallback days: a week of lost sweeps means no comparable
// baseline, and the event drops rather than joining stale data.
func TestQuarantineFallbackBounded(t *testing.T) {
	w := buildWorld(t)
	agg := nsset.NewAggregator()
	attackW := clock.Day(40).FirstWindow()
	base := clock.Day(31).Start() // nine days back: beyond the bounded walk
	for i := 0; i < 10; i++ {
		agg.Add(w.vulnKey, base.Add(time.Duration(i)*time.Hour), nsset.StatusOK, 10*time.Millisecond)
	}
	mid := attackW.Start().Add(time.Minute)
	for i := 0; i < 10; i++ {
		agg.Add(w.vulnKey, mid, nsset.StatusOK, 50*time.Millisecond)
	}
	p := NewPipeline(w.db, WithDayStore(agg), WithCensus(w.census), WithTopology(w.topo), WithOpenResolvers(w.open))
	var q []clock.Day
	for d := clock.Day(32); d <= 39; d++ {
		q = append(q, d)
	}
	p.SetQuarantinedDays(q)
	if got := len(p.Events([]rsdos.Attack{mkAttack(1, w.vulnNS[0], attackW, attackW+2, 53)})); got != 0 {
		t.Errorf("join walked past %d quarantined days: %d events, want 0", len(q), got)
	}
}
