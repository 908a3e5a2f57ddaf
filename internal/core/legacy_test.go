package core

import (
	"context"

	"dnsddos/internal/clock"
	"dnsddos/internal/nsset"
	"dnsddos/internal/rsdos"
)

// legacy_test.go keeps the historical linear-scan join as the reference
// oracle: it classifies every attack and probes the day store window by
// window (probe: a one-window ranged read), with none of the engine's
// indexes, shards or plans. The parity
// and race tests and BenchmarkJoin's legacy leg call it directly; it is
// no longer reachable from production code.

// EventsLegacy exposes the oracle to the external test package (the
// study-level parity test and benchmark, which import internal/study and
// so cannot live in package core).
func EventsLegacy(ctx context.Context, p *Pipeline, attacks []rsdos.Attack) ([]Event, error) {
	return p.eventsLegacy(ctx, attacks)
}

// eventsLegacy is the reference join: a linear scan classifying every
// attack, probing the aggregator window by window.
func (p *Pipeline) eventsLegacy(ctx context.Context, attacks []rsdos.Attack) ([]Event, error) {
	var out []Event
	var pr probe
	for i, ca := range p.Classify(attacks) {
		if i&255 == 0 {
			select {
			case <-ctx.Done():
				return out, ctx.Err()
			default:
			}
		}
		if ca.Class != ClassDNSDirect {
			continue
		}
		for _, k := range p.ix.NSSetsContaining(ca.Victim) {
			if e, ok := p.buildEvent(&pr, ca, k); ok {
				out = append(out, e)
			}
		}
	}
	return out, nil
}

// probe is the oracle's point probe — the metrics of (k, w), or nil until
// the next probe — through a one-window ranged read into its own buffer.
type probe []nsset.WindowMetrics

func (pr *probe) at(ds DayStore, k nsset.Key, w clock.Window) *nsset.WindowMetrics {
	if *pr = ds.AppendWindows((*pr)[:0], k, w, w); len(*pr) == 1 {
		return &(*pr)[0]
	}
	return nil
}

func (p *Pipeline) buildEvent(pr *probe, ca ClassifiedAttack, k nsset.Key) (Event, bool) {
	// The NSSet must appear in the nameserver list of the snapshot day:
	// the paper uses the day *before* the attack, so that servers
	// unreachable during the attack are not missed (§4.2). The same-day
	// ablation requires a successful observation on the attack day
	// itself — which a devastating attack can prevent.
	snapDay := ca.StartWindow.Day()
	if p.cfg.UsePrevDaySnapshot {
		snapDay = snapDay.Prev()
	}
	snapDay = p.measurableDay(snapDay)
	if b, ok := p.days.Baseline(k, snapDay); !ok || b.OKCount == 0 {
		return Event{}, false
	}
	e := Event{
		Attack:        ca,
		NSSet:         k,
		HostedDomains: p.ix.DomainCount(k),
	}
	impact := 0.0
	hasImpact := false
	worstFail := 0.0
	for w := ca.StartWindow; w <= ca.EndWindow; w++ {
		m := pr.at(p.days, k, w)
		if m == nil {
			continue
		}
		e.MeasuredDomains += m.Domains
		e.OK += m.OKCount
		e.Timeouts += m.Timeouts
		e.ServFails += m.ServFails
		if fr := m.FailureRate(); fr > worstFail {
			worstFail = fr
		}
		if imp, ok := p.impactAt(k, m); ok {
			hasImpact = true
			if imp > impact {
				impact = imp
			}
		}
	}
	if e.MeasuredDomains < p.cfg.MinMeasuredDomains {
		return Event{}, false
	}
	e.Impact, e.HasImpact, e.FailureRate = impact, hasImpact, worstFail
	p.enrich(&e, ca.Start())
	return e, true
}

// impactAt applies the configured Eq. 1 baseline rule — the same guards
// and float arithmetic as nsset.ImpactVsDay, read through the day store.
func (p *Pipeline) impactAt(k nsset.Key, m *nsset.WindowMetrics) (float64, bool) {
	back := p.cfg.BaselineDaysBack
	if back <= 0 {
		back = 1
	}
	if m.OKCount == 0 {
		return 0, false
	}
	b, ok := p.days.Baseline(k, p.measurableDay(m.Window.Day()-clock.Day(back)))
	if !ok || b.OKCount == 0 {
		return 0, false
	}
	base := b.AvgRTT()
	if base <= 0 {
		return 0, false
	}
	return float64(m.AvgRTT()) / float64(base), true
}
