// join.go is the join engine (DESIGN §3.4), the implementation of
// Pipeline.EventsContext: one pass over the feed, in feed order, on the
// caller's goroutine. Each entry passes the NSIndex bit filter and the
// per-victim classification memo; each DNS-direct attack is joined with
// the containing NSSets in sorted order. That is the emission order of
// the linear scan kept in legacy_test.go, by construction, so the engine
// is byte-identical to it (enforced by TestJoinEngineParity).
//
// The pass removes three per-event costs the linear scan pays:
//
//   - classification runs once per distinct victim, not once per attack
//     (amplification-era feeds re-hit the same victims for months);
//   - each (attack, NSSet) pair is one ranged read of the windows the day
//     store holds inside the attack span (DayStore.AppendWindows, into one
//     scratch slice reused across the call), instead of a probe of every
//     5-minute window of the span;
//   - the Eq. 1 denominator is one by-value read per (NSSet, calendar day)
//     (DayStore.Baseline), hoisted out of the window loop, instead of one
//     per window.
package core

import (
	"context"
	"time"

	"dnsddos/internal/clock"
	"dnsddos/internal/dnsdb"
	"dnsddos/internal/netx"
	"dnsddos/internal/nsset"
	"dnsddos/internal/obs"
	"dnsddos/internal/rsdos"
)

// joinMetrics is the engine's observability surface. All metrics are
// registered Volatile: keeping them out of StableSnapshot keeps seeded-run
// outputs (study.Report, golden files) byte-identical.
// The zero value (no registry) is valid and free: every field is a
// nil-safe no-op metric.
type joinMetrics struct {
	victims       *obs.Gauge   // core.join.victims: distinct DNS-direct victims in the last feed
	events        *obs.Counter // core.join.events: events emitted (cumulative)
	attacksJoined *obs.Counter // core.join.attacks: DNS-direct attacks joined (cumulative)
}

// newJoinMetrics registers the engine metrics on reg (nil disables all).
func newJoinMetrics(reg *obs.Registry) joinMetrics {
	return joinMetrics{
		victims:       reg.Gauge("core.join.victims", obs.Volatile()),
		events:        reg.Counter("core.join.events", obs.Volatile()),
		attacksJoined: reg.Counter("core.join.attacks", obs.Volatile()),
	}
}

// EventsContext is Events with cooperative cancellation. The context is
// checked before every 64th DNS-direct attack joined; a cancelled join
// returns a prefix, in order, of the events the full join emits, with
// ctx.Err(). The day store is read on the caller's goroutine, so a store
// that refuses a day panics here (DayStore, daystore.go). Each event's
// Attack points into attacks, which the caller must not modify while the
// events are read; a caller that numbers its attacks does so before the
// join.
func (p *Pipeline) EventsContext(ctx context.Context, attacks []rsdos.Attack) ([]Event, error) {
	// The feed is dominated by victims that are not DNS infrastructure,
	// so each entry first passes the NSIndex bit filter (one shift + bit
	// test), and survivors get one memoized classification per distinct
	// victim.
	type vinfo struct {
		direct bool
		ns     dnsdb.NameserverID
	}
	memo := make(map[netx.Addr]vinfo)
	var (
		out     []Event
		wins    []nsset.WindowMetrics // the current (attack, NSSet) span's windows
		victims int64
		joined  int
	)
	for i := range attacks {
		v := attacks[i].Victim
		if !p.ix.mayBeNS(v) {
			continue
		}
		inf, ok := memo[v]
		if !ok {
			class, _, ns := p.classifyVictim(v)
			inf = vinfo{direct: class == ClassDNSDirect, ns: ns}
			memo[v] = inf
			if inf.direct {
				victims++
			}
		}
		if !inf.direct {
			continue
		}
		sets := p.ix.NSSetsContaining(v)
		if len(sets) == 0 {
			continue
		}
		if joined&63 == 0 && ctx.Err() != nil {
			break
		}
		joined++
		ca := ClassifiedAttack{
			Attack:     &attacks[i],
			Class:      ClassDNSDirect,
			NSRecorded: true,
			NS:         inf.ns,
		}
		// the §4.2 snapshot day depends only on the attack; resolve it
		// once for all containing NSSets
		snapDay := ca.StartWindow.Day()
		if p.cfg.UsePrevDaySnapshot {
			snapDay = snapDay.Prev()
		}
		snapDay = p.measurableDay(snapDay)
		for _, k := range sets {
			if e, ok := p.buildEventIndexed(ca, snapDay, k, &wins); ok {
				out = append(out, e)
			}
		}
	}
	p.metrics.victims.Set(victims)
	p.metrics.attacksJoined.Add(int64(joined))
	p.metrics.events.Add(int64(len(out)))
	return out, ctx.Err()
}

// buildEventIndexed builds one (attack, NSSet) event: snapDay is the
// attack's resolved §4.2 snapshot day, Eq. 1 baselines are by-value
// DayStore.Baseline reads, and the attack span's windows come from one
// ranged read into *wins, the caller's scratch — with identical guards and
// float arithmetic so results are byte-for-byte the legacy scan's.
func (p *Pipeline) buildEventIndexed(ca ClassifiedAttack, snapDay clock.Day, k nsset.Key, wins *[]nsset.WindowMetrics) (Event, bool) {
	if b, ok := p.days.Baseline(k, snapDay); !ok || b.OKCount == 0 {
		return Event{}, false
	}
	e := Event{
		Attack:        ca,
		NSSet:         k,
		HostedDomains: p.ix.DomainCount(k),
	}
	back := clock.Day(p.cfg.BaselineDaysBack)
	if back <= 0 {
		back = 1
	}
	impact := 0.0
	hasImpact := false
	worstFail := 0.0
	// Measurements are sparse within an attack span (each domain is swept
	// once a day), so instead of probing every 5-minute window the span is
	// one ranged read of the windows the store actually holds. Every
	// accumulator below is order-independent — integer sums and maxima
	// over the same set of windows — so the read reproduces the legacy
	// scan's bytes.
	*wins = p.days.AppendWindows((*wins)[:0], k, ca.StartWindow, ca.EndWindow)
	// The Eq. 1 denominator is a per-day quantity, hoisted out of the
	// window loop: computed lazily on a day's first OK window and dropped
	// when the span crosses into the next day.
	var (
		baseDay  clock.Day
		baseRTT  time.Duration
		baseOK   bool
		baseDone bool
	)
	for i := range *wins {
		m := &(*wins)[i]
		e.MeasuredDomains += m.Domains
		e.OK += m.OKCount
		e.Timeouts += m.Timeouts
		e.ServFails += m.ServFails
		if fr := m.FailureRate(); fr > worstFail {
			worstFail = fr
		}
		if m.OKCount == 0 {
			continue
		}
		if d := m.Window.Day(); !baseDone || d != baseDay {
			baseDay, baseDone, baseOK = d, true, false
			if b, ok := p.days.Baseline(k, p.measurableDay(d-back)); ok && b.OKCount > 0 {
				if rtt := b.AvgRTT(); rtt > 0 {
					baseRTT, baseOK = rtt, true
				}
			}
		}
		if baseOK {
			hasImpact = true
			if imp := float64(m.AvgRTT()) / float64(baseRTT); imp > impact {
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
