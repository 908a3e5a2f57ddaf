// join.go is the interval-indexed sharded join engine (DESIGN §3.4), the
// implementation of Pipeline.EventsContext.
//
// Engine shape: the attack feed is indexed by victim (AttackIndex, one
// flat sorted plan), each distinct victim is classified exactly once, and
// DNS-direct victims are grouped into shards by a victim-address prefix
// (default /16). A bounded worker pool joins the shards against the shared
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
	"fmt"
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
	indexBuildNS  *obs.Gauge     // core.join.index_build_ns: last AttackIndex build
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

// dnsVictim is one classified DNS-direct victim with its attack feed
// positions — the unit of shard work.
type dnsVictim struct {
	v       netx.Addr
	ns      dnsdb.NameserverID
	attacks []int32 // feed positions, sorted by (start, position)
}

// TaggedEvent carries an event with the two sort keys that reproduce the
// legacy emission order: the attack's feed position and the containing
// NSSet's rank among the victim's sorted sets. Exported (with gob-friendly
// value fields) so a distributed worker can ship a shard range's events to
// the coordinator, which restores the global order with MergeTaggedEvents.
type TaggedEvent struct {
	AttackIdx int32
	NSSetIdx  int32
	Event     Event
}

// cmpTagged is the legacy emission order over tagged events.
func cmpTagged(a, b TaggedEvent) int {
	return cmp.Or(cmp.Compare(a.AttackIdx, b.AttackIdx), cmp.Compare(a.NSSetIdx, b.NSSetIdx))
}

// MergeTaggedEvents merges per-shard-range event buffers (in any order,
// from any number of workers) into the exact event sequence the
// single-process join emits: one global sort by (feed position, NSSet
// rank) and the tags are stripped. Ranges cover disjoint shard sets, so
// no deduplication is needed — exactly-once delivery is the caller's
// (coordinator journal's) contract.
func MergeTaggedEvents(parts [][]TaggedEvent) []Event {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	merged := make([]TaggedEvent, 0, n)
	for _, p := range parts {
		merged = append(merged, p...)
	}
	slices.SortFunc(merged, cmpTagged)
	out := make([]Event, len(merged))
	for i, te := range merged {
		out[i] = te.Event
	}
	return out
}

// joinIndex is one feed's immutable join plan: the attack interval index
// plus the classified DNS-direct victims grouped into shards. It is a
// pure function of the feed slice (and the pipeline's frozen world), so
// the pipeline memoizes the last plan: repeat joins over the same feed —
// resumed runs, ablation sweeps, the report tools — skip the feed scan
// entirely. Like AttackIndex, it references the feed and is stale if the
// slice is mutated in place.
type joinIndex struct {
	feedPtr *rsdos.Attack
	feedLen int
	aix     *AttackIndex
	direct  []dnsVictim
	shards  [][]dnsVictim
}

// joinIndexFor returns the feed's join plan, building it at most once per
// distinct feed (concurrent first calls may race to build; either result
// is correct and one wins the store).
func (p *Pipeline) joinIndexFor(attacks []rsdos.Attack) *joinIndex {
	var feedPtr *rsdos.Attack
	if len(attacks) > 0 {
		feedPtr = &attacks[0]
	}
	if ji := p.joinIdx.Load(); ji != nil && ji.feedPtr == feedPtr && ji.feedLen == len(attacks) {
		return ji
	}

	t0 := time.Now()
	// Index only DNS-direct victims: the feed is dominated by victims
	// that are not DNS infrastructure, so each entry first passes the
	// NSIndex bit filter (one shift + bit test) and survivors get one
	// memoized classification per distinct victim. The interval
	// structures are then built for the relevant subset only.
	type vinfo struct {
		direct bool
		ns     dnsdb.NameserverID
	}
	memo := make(map[netx.Addr]vinfo)
	aix := BuildAttackIndexFunc(attacks, func(v netx.Addr) bool {
		if !p.ix.mayBeNS(v) {
			return false
		}
		inf, ok := memo[v]
		if !ok {
			class, _, ns := p.classifyVictim(v)
			inf = vinfo{direct: class == ClassDNSDirect, ns: ns}
			memo[v] = inf
		}
		return inf.direct
	})

	// Victims() is sorted ascending, so consecutive victims share shard
	// prefixes and the shard list below comes out in ascending order.
	direct := make([]dnsVictim, len(aix.victims))
	for i, v := range aix.victims {
		direct[i] = dnsVictim{v: v, ns: memo[v].ns, attacks: aix.pos[aix.offs[i]:aix.offs[i+1]]}
	}

	// Group contiguous runs of victims by address prefix into shards.
	shift := uint(32 - p.shardBits)
	var shards [][]dnsVictim
	for i := 0; i < len(direct); {
		j := i + 1
		for j < len(direct) && uint32(direct[j].v)>>shift == uint32(direct[i].v)>>shift {
			j++
		}
		shards = append(shards, direct[i:j])
		i = j
	}
	p.metrics.indexBuildNS.Set(time.Since(t0).Nanoseconds())

	ji := &joinIndex{feedPtr: feedPtr, feedLen: len(attacks), aix: aix, direct: direct, shards: shards}
	p.joinIdx.Store(ji)
	return ji
}

// EventsContext is Events with cooperative cancellation: the sharded
// interval-indexed join. A cancelled join returns the events built so far
// together with ctx.Err(); callers must treat such a slice as partial.
func (p *Pipeline) EventsContext(ctx context.Context, attacks []rsdos.Attack) ([]Event, error) {
	ji := p.joinIndexFor(attacks)
	p.metrics.victims.Set(int64(len(ji.direct)))
	p.metrics.shards.Set(int64(len(ji.shards)))

	if len(ji.shards) == 0 {
		return nil, ctx.Err()
	}
	return p.runShards(ctx, ji.aix, ji.shards)
}

// runShards is the single-process join: the whole shard list through the
// worker pool, then the tags stripped from the already-sorted range.
func (p *Pipeline) runShards(ctx context.Context, aix *AttackIndex, shards [][]dnsVictim) ([]Event, error) {
	merged, err := p.runShardRange(ctx, aix, shards)
	out := make([]Event, len(merged))
	for i := range merged {
		out[i] = merged[i].Event
	}
	p.metrics.events.Add(int64(len(out)))
	return out, err
}

// joinWorker is the memory one pool worker carries from shard to shard, so
// a warm worker allocates per emitted event, not per shard or per read.
type joinWorker struct {
	out  []TaggedEvent         // events of every shard joined so far
	wins []nsset.WindowMetrics // the current (attack, NSSet) span's windows
}

// runShardRange joins a contiguous shard slice through the bounded worker
// pool and returns the tagged events sorted in legacy emission order —
// the shared engine under both the single-process join (runShards) and
// the distributed shard-range API (JoinShardRange).
func (p *Pipeline) runShardRange(ctx context.Context, aix *AttackIndex, shards [][]dnsVictim) ([]TaggedEvent, error) {
	workers := p.joinWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(shards) {
		workers = len(shards)
	}

	outs := make([][]TaggedEvent, workers)
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
		p.joinShard(ctx, aix, shards[si], jw)
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
	return merged, ctx.Err()
}

// JoinShardCount returns how many victim-prefix shards the feed's join
// plan contains — the unit of distribution: a coordinator partitions
// [0, JoinShardCount) into contiguous ranges and hands each range to a
// worker's JoinShardRange. The count is a pure function of the feed and
// the pipeline's frozen world, so every process that rebuilt the same
// world from the same config computes the same value.
func (p *Pipeline) JoinShardCount(attacks []rsdos.Attack) int {
	return len(p.joinIndexFor(attacks).shards)
}

// JoinShardRange joins the shard range [from, to) of the feed's join plan
// and returns its tagged events in legacy emission order. Disjoint ranges
// joined in different processes and merged with MergeTaggedEvents are
// byte-identical to one EventsContext call over the whole feed.
func (p *Pipeline) JoinShardRange(ctx context.Context, attacks []rsdos.Attack, from, to int) ([]TaggedEvent, error) {
	ji := p.joinIndexFor(attacks)
	if from < 0 || to < from || to > len(ji.shards) {
		return nil, fmt.Errorf("core: shard range [%d, %d) out of bounds (plan has %d shards)", from, to, len(ji.shards))
	}
	shards := ji.shards[from:to]
	if len(shards) == 0 {
		return nil, ctx.Err()
	}
	merged, err := p.runShardRange(ctx, ji.aix, shards)
	p.metrics.events.Add(int64(len(merged)))
	return merged, err
}

// joinShard joins one shard's victims, appending to the worker's events.
// Every (attack, NSSet) pair reads its span through the worker's window
// scratch, so a warm worker allocates nothing per pair but the emitted
// event's ASN list. Cancellation is checked between attacks; a cancelled
// shard leaves the events built so far (the overall join then reports
// ctx.Err() and callers treat the result as partial).
func (p *Pipeline) joinShard(ctx context.Context, aix *AttackIndex, victims []dnsVictim, jw *joinWorker) {
	checked := 0
	for _, dv := range victims {
		sets := p.ix.NSSetsContaining(dv.v)
		if len(sets) == 0 {
			continue
		}
		for _, ai := range dv.attacks {
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
				Attack:     aix.attacks[ai],
				Class:      ClassDNSDirect,
				NSRecorded: true,
				NS:         dv.ns,
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
					jw.out = append(jw.out, TaggedEvent{AttackIdx: ai, NSSetIdx: int32(ki), Event: e})
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
