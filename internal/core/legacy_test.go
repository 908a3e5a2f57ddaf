package core

import (
	"context"

	"dnsddos/internal/clock"
	"dnsddos/internal/nsset"
	"dnsddos/internal/rsdos"
)

// legacy_test.go keeps the historical linear-scan join as the reference
// oracle: it classifies every attack and probes the day store window by
// window, with none of the engine's indexes, shards or caches. The parity
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
			if e, ok := p.buildEvent(ca, k); ok {
				out = append(out, e)
			}
		}
	}
	return out, nil
}

func (p *Pipeline) buildEvent(ca ClassifiedAttack, k nsset.Key) (Event, bool) {
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
	if b := p.days.Baseline(k, snapDay); b == nil || b.OKCount == 0 {
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
		m := p.days.Window(k, w)
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
		if imp, ok := p.impactAt(k, w); ok {
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
func (p *Pipeline) impactAt(k nsset.Key, w clock.Window) (float64, bool) {
	back := p.cfg.BaselineDaysBack
	if back <= 0 {
		back = 1
	}
	m := p.days.Window(k, w)
	if m == nil || m.OKCount == 0 {
		return 0, false
	}
	b := p.days.Baseline(k, p.measurableDay(w.Day()-clock.Day(back)))
	if b == nil || b.OKCount == 0 {
		return 0, false
	}
	base := b.AvgRTT()
	if base <= 0 {
		return 0, false
	}
	return float64(m.AvgRTT()) / float64(base), true
}
