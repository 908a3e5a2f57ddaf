// join.go is the sharded join engine (DESIGN §3.4), the implementation of
// Pipeline.EventsContext.
//
// Engine shape: each call plans the feed — every distinct victim is
// classified exactly once, and the DNS-direct victims' (victim, feed
// position) pairs are sorted into per-victim runs grouped into shards by
// victim /16. A bounded worker pool joins the shards against the shared
// read-only NSIndex and the day store's two reads (DayStore, daystore.go),
// each worker appending events to its own buffer. The buffers are
// concatenated and sorted by (feed position, NSSet rank), which reproduces
// the legacy linear scan's emission order exactly — attacks in feed order,
// and per victim the containing NSSets in sorted order — so the engine is
// byte-identical to the reference scan kept in legacy_test.go on completed
// joins (enforced by TestJoinEngineParity).
//
// Beyond sharding, the engine removes three per-event costs the linear
// scan pays:
//
//   - classification runs once per distinct victim, not once per attack
//     (amplification-era feeds re-hit the same victims for months);
//   - each (attack, NSSet) pair is one ranged read of the windows the day
//     store holds inside the attack span (DayStore.AppendWindows, into the
//     worker's scratch), instead of a probe of every 5-minute window of
//     the span;
//   - the Eq. 1 denominator is one by-value read per (NSSet, calendar day)
//     (DayStore.Baseline), hoisted out of the window loop, instead of one
//     per window.
package core

import (
	"cmp"
	"context"
	"runtime"
	"slices"
	"sync"
	"time"

	"dnsddos/internal/clock"
	"dnsddos/internal/dnsdb"
	"dnsddos/internal/netx"
	"dnsddos/internal/nsset"
	"dnsddos/internal/obs"
	"dnsddos/internal/rsdos"
)

// joinMetrics is the engine's observability surface. All metrics are
// registered Volatile: build times and shard latencies are run-dependent,
// and keeping them out of StableSnapshot keeps seeded-run outputs
// (study.Report, golden files) byte-identical.
// The zero value (no registry) is valid and free: every field is a
// nil-safe no-op metric.
type joinMetrics struct {
	indexBuildNS  *obs.Gauge     // core.join.index_build_ns: last plan build
	victims       *obs.Gauge     // core.join.victims: distinct DNS-direct victims in the last feed
	shards        *obs.Gauge     // core.join.shards: shards in the last join
	events        *obs.Counter   // core.join.events: events emitted (cumulative)
	attacksJoined *obs.Counter   // core.join.attacks: DNS-direct attacks joined (cumulative)
	shardLatency  *obs.Histogram // core.join.shard_latency_ns: per-shard wall time
}

// newJoinMetrics registers the engine metrics on reg (nil disables all).
func newJoinMetrics(reg *obs.Registry) joinMetrics {
	return joinMetrics{
		indexBuildNS:  reg.Gauge("core.join.index_build_ns", obs.Volatile()),
		victims:       reg.Gauge("core.join.victims", obs.Volatile()),
		shards:        reg.Gauge("core.join.shards", obs.Volatile()),
		events:        reg.Counter("core.join.events", obs.Volatile()),
		attacksJoined: reg.Counter("core.join.attacks", obs.Volatile()),
		shardLatency:  reg.Histogram("core.join.shard_latency_ns", obs.Volatile()),
	}
}

// victimRef is one feed entry whose victim is DNS-direct: the victim,
// its nameserver and the entry's feed position.
type victimRef struct {
	victim netx.Addr
	ns     dnsdb.NameserverID
	idx    int32
}

// victimRun is one DNS-direct victim's feed entries in feed order — the
// unit of shard work.
type victimRun []victimRef

// shardBits is the victim-prefix width the plan groups shards by: one
// shard per victim /16.
const shardBits = 16

// taggedEvent carries an event with the two sort keys that reproduce the
// legacy emission order: the attack's feed position and the containing
// NSSet's rank among the victim's sorted sets.
type taggedEvent struct {
	attackIdx int32
	nssetIdx  int32
	event     Event
}

// cmpTagged is the legacy emission order over tagged events.
func cmpTagged(a, b taggedEvent) int {
	return cmp.Or(cmp.Compare(a.attackIdx, b.attackIdx), cmp.Compare(a.nssetIdx, b.nssetIdx))
}

// plan builds the feed's join plan: the DNS-direct victims' feed entries
// cut into per-victim runs, grouped into shards of contiguous victims by
// address prefix, in ascending address order. It is built on every call
// from the feed as it is now, so a caller may refill a feed slice in place
// between joins.
func (p *Pipeline) plan(attacks []rsdos.Attack) [][]victimRun {
	t0 := time.Now()
	// Keep only DNS-direct victims: the feed is dominated by victims that
	// are not DNS infrastructure, so each entry first passes the NSIndex
	// bit filter (one shift + bit test) and survivors get one memoized
	// classification per distinct victim. The filter runs twice — once to
	// size the plan, once to fill it.
	type vinfo struct {
		direct bool
		ns     dnsdb.NameserverID
	}
	memo := make(map[netx.Addr]vinfo)
	info := func(v netx.Addr) vinfo {
		if !p.ix.mayBeNS(v) {
			return vinfo{}
		}
		inf, ok := memo[v]
		if !ok {
			class, _, ns := p.classifyVictim(v)
			inf = vinfo{direct: class == ClassDNSDirect, ns: ns}
			memo[v] = inf
		}
		return inf
	}
	n := 0
	for i := range attacks {
		if info(attacks[i].Victim).direct {
			n++
		}
	}
	refs := make([]victimRef, 0, n)
	for i := range attacks {
		v := attacks[i].Victim
		if inf := info(v); inf.direct {
			refs = append(refs, victimRef{victim: v, ns: inf.ns, idx: int32(i)})
		}
	}
	slices.SortFunc(refs, func(a, b victimRef) int {
		return cmp.Or(cmp.Compare(a.victim, b.victim), cmp.Compare(a.idx, b.idx))
	})

	bits := p.shardBits
	if bits == 0 {
		bits = shardBits
	}
	shift := uint(32 - bits)
	victims := cut(victimRun(refs), func(r *victimRef) netx.Addr { return r.victim })
	shards := cut(victims, func(r *victimRun) uint32 { return uint32((*r)[0].victim) >> shift })
	p.metrics.indexBuildNS.Set(time.Since(t0).Nanoseconds())
	p.metrics.victims.Set(int64(len(victims)))
	p.metrics.shards.Set(int64(len(shards)))
	return shards
}

// cut splits s into its maximal runs of elements with equal keys.
func cut[S ~[]E, E any, K comparable](s S, key func(*E) K) []S {
	n := 0
	for i := range s {
		if i == 0 || key(&s[i]) != key(&s[i-1]) {
			n++
		}
	}
	runs := make([]S, 0, n)
	for i := 0; i < len(s); {
		j := i + 1
		for j < len(s) && key(&s[j]) == key(&s[i]) {
			j++
		}
		runs = append(runs, s[i:j:j])
		i = j
	}
	return runs
}

// EventsContext is Events with cooperative cancellation: the sharded
// join. A cancelled join returns the events built so far together with
// ctx.Err(); callers must treat such a slice as partial.
func (p *Pipeline) EventsContext(ctx context.Context, attacks []rsdos.Attack) ([]Event, error) {
	shards := p.plan(attacks)
	if len(shards) == 0 {
		return nil, ctx.Err()
	}
	return p.runShards(ctx, attacks, shards)
}

// joinWorker is the memory one pool worker carries from shard to shard, so
// a warm worker allocates per emitted event, not per shard or per read.
type joinWorker struct {
	out  []taggedEvent         // events of every shard joined so far
	wins []nsset.WindowMetrics // the current (attack, NSSet) span's windows
}

// runShards joins the shard list through the bounded worker pool, sorts
// the workers' tagged events into legacy emission order and strips the
// tags.
func (p *Pipeline) runShards(ctx context.Context, attacks []rsdos.Attack, shards [][]victimRun) ([]Event, error) {
	workers := p.joinWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(shards) {
		workers = len(shards)
	}

	outs := make([][]taggedEvent, workers)
	work := make(chan int)
	var wg sync.WaitGroup
	// The day store is first read here, in the workers, and a file-backed
	// store refuses a corrupt day by panicking (DayStore, daystore.go). A
	// worker keeps the first such panic and goes on draining work; the
	// caller re-raises it below, on the goroutine where a supervised run
	// can recover it.
	var (
		panicOnce sync.Once
		panicked  any
	)
	joinOne := func(si int, jw *joinWorker) {
		defer func() {
			if r := recover(); r != nil {
				panicOnce.Do(func() { panicked = r })
			}
		}()
		st := time.Now()
		p.joinShard(ctx, attacks, shards[si], jw)
		p.metrics.shardLatency.Observe(time.Since(st))
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var jw joinWorker
			for si := range work {
				joinOne(si, &jw)
			}
			outs[w] = jw.out
		}()
	}
dispatch:
	for si := range shards {
		select {
		case work <- si:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(work)
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}

	// One worker's buffer takes the others' events: a single worker's
	// output is sorted where it is.
	merged := outs[0]
	for _, o := range outs[1:] {
		merged = append(merged, o...)
	}
	// Shards cover disjoint ascending victim ranges but attacks interleave
	// across victims; restore the feed order the legacy scan emits in.
	slices.SortFunc(merged, cmpTagged)
	out := make([]Event, len(merged))
	for i := range merged {
		out[i] = merged[i].event
	}
	p.metrics.events.Add(int64(len(out)))
	return out, ctx.Err()
}

// joinShard joins one shard's victims, appending to the worker's events.
// Every (attack, NSSet) pair reads its span through the worker's window
// scratch, so a warm worker allocates nothing per pair but the emitted
// event's ASN list. Cancellation is checked between attacks; a cancelled
// shard leaves the events built so far (the overall join then reports
// ctx.Err() and callers treat the result as partial).
func (p *Pipeline) joinShard(ctx context.Context, attacks []rsdos.Attack, victims []victimRun, jw *joinWorker) {
	checked := 0
	for _, run := range victims {
		sets := p.ix.NSSetsContaining(run[0].victim)
		if len(sets) == 0 {
			continue
		}
		for _, r := range run {
			if checked&63 == 0 {
				select {
				case <-ctx.Done():
					return
				default:
				}
			}
			checked++
			p.metrics.attacksJoined.Inc()
			ca := ClassifiedAttack{
				Attack:     attacks[r.idx],
				Class:      ClassDNSDirect,
				NSRecorded: true,
				NS:         r.ns,
			}
			// the §4.2 snapshot day depends only on the attack; resolve
			// it once for all containing NSSets
			snapDay := ca.StartWindow.Day()
			if p.cfg.UsePrevDaySnapshot {
				snapDay = snapDay.Prev()
			}
			snapDay = p.measurableDay(snapDay)
			for ki, k := range sets {
				if e, ok := p.buildEventIndexed(ca, snapDay, k, jw); ok {
					jw.out = append(jw.out, taggedEvent{attackIdx: r.idx, nssetIdx: int32(ki), event: e})
				}
			}
		}
	}
}

// buildEventIndexed builds one (attack, NSSet) event: snapDay is the
// attack's resolved §4.2 snapshot day, Eq. 1 baselines are by-value
// DayStore.Baseline reads, and the attack span's windows come from one
// ranged read into the worker's scratch — with identical guards and float
// arithmetic so results are byte-for-byte the legacy scan's.
func (p *Pipeline) buildEventIndexed(ca ClassifiedAttack, snapDay clock.Day, k nsset.Key, jw *joinWorker) (Event, bool) {
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
	jw.wins = p.days.AppendWindows(jw.wins[:0], k, ca.StartWindow, ca.EndWindow)
	// The Eq. 1 denominator is a per-day quantity, hoisted out of the
	// window loop: computed lazily on a day's first OK window and dropped
	// when the span crosses into the next day.
	var (
		baseDay  clock.Day
		baseRTT  time.Duration
		baseOK   bool
		baseDone bool
	)
	for i := range jw.wins {
		m := &jw.wins[i]
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
