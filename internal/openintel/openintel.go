// Package openintel reproduces the active-measurement platform of §3.2: a
// daily sweep that issues an explicit NS query for every registered domain
// through the agnostic resolver, recording resolution time and response
// status, and aggregating per-NSSet 5-minute metrics (§4.1).
//
// Like the real platform, the sweep spreads each day's queries over the
// whole day (each domain has a stable slot, so a 5-minute attack window
// catches a pseudo-random subset of a large NSSet's domains — the reason
// the paper requires at least five measured domains per attack window).
//
// Every (day, domain) measurement draws from a random stream of its own,
// so a sweep that measures only some domains (Engine.Restrict) records
// for each of them exactly what the sweep of every domain records.
package openintel

import (
	"context"
	"errors"
	"math/rand/v2"
	"slices"
	"sync"
	"time"

	"dnsddos/internal/clock"
	"dnsddos/internal/dnsdb"
	"dnsddos/internal/netx"
	"dnsddos/internal/nsset"
	"dnsddos/internal/resolver"
)

// Record is one measurement observation, the platform's unit of storage.
type Record struct {
	Domain dnsdb.DomainID
	Time   time.Time
	NSSet  nsset.Key
	Status nsset.QueryStatus
	RTT    time.Duration
	Tries  int
}

// Engine drives daily sweeps over a world. What does not depend on the day
// — NSSet keys, slots, the visiting order — is computed once in NewEngine.
type Engine struct {
	db   *dnsdb.DB
	res  *resolver.Resolver
	seed uint64
	// table holds one key and one dense ID per distinct NS list of the
	// world; aggregators built over it take the sweep's records by ID.
	table *nsset.Interner
	// ids caches each domain's NSSet ID in table, and keys each ID's key
	// (the table's own slice, read without its lock): a few hundred NS
	// lists serve thousands of domains.
	ids  []nsset.ID
	keys []nsset.Key
	// slot caches each domain's second-of-day measurement slot.
	slot []int32
	// order is the domains sorted by slot: every day's visiting order.
	order []dnsdb.DomainID
	// want, when set, is the sweep's demand: a day measures only the
	// domains whose NSSet it holds on that day. Nil measures every domain.
	want func(nsset.ID, clock.Day) bool
}

// NewEngine builds an engine. seed determines the per-domain daily slots
// and all query randomness, making sweeps reproducible.
func NewEngine(db *dnsdb.DB, res *resolver.Resolver, seed uint64) *Engine {
	e := &Engine{db: db, res: res, seed: seed, table: new(nsset.Interner)}
	e.ids = make([]nsset.ID, len(db.Domains))
	e.slot = make([]int32, len(db.Domains))
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	// thousands of domains share a few hundred NS lists: one Key per
	// distinct list, its addresses gathered in a stack array
	for i := range db.Domains {
		var arr [16]netx.Addr
		addrs := arr[:0]
		for _, id := range db.Domains[i].NS {
			addrs = append(addrs, db.Nameservers[id].Addr)
		}
		_, e.ids[i] = e.table.Intern(addrs)
		e.slot[i] = int32(rng.IntN(86400))
	}
	e.keys, _ = e.table.Sorted()
	e.order = e.slotOrder()
	return e
}

// Restrict returns an engine over the same world, NSSet table and slots
// that measures, on each day, only the domains whose NSSet want holds on
// that day; nil measures every domain. A domain it measures gets the
// record the unrestricted engine gives it, so the restricted sweep is the
// full sweep with the other records left out. want is called from every
// goroutine that sweeps with the engine, and must not change.
func (e *Engine) Restrict(want func(nsset.ID, clock.Day) bool) *Engine {
	r := *e
	r.want = want
	return &r
}

// NSSetTable returns the engine's table of NSSets. A sweep into an
// aggregator built over it (nsset.NewAggregatorOver) adds by ID.
func (e *Engine) NSSetTable() *nsset.Interner { return e.table }

// DomainNSSets returns each domain's NSSet ID in the engine's table
// (NSSetTable), indexed by DomainID: what core.NewNSIndex counts each
// NSSet's hosted domains from, so a study's join index is built over the
// engine's table without recomputing a key from the DB. The returned
// slice is shared and must be treated as read-only.
func (e *Engine) DomainNSSets() []nsset.ID { return e.ids }

// MeasureAt measures one domain at time t and returns the record.
func (e *Engine) MeasureAt(rng *rand.Rand, d dnsdb.DomainID, t time.Time) Record {
	o := e.res.Resolve(rng, d, t)
	return Record{
		Domain: d,
		Time:   t,
		NSSet:  e.keys[e.ids[d]],
		Status: o.Status,
		RTT:    o.RTT,
		Tries:  o.Tries,
	}
}

// ctxCheckStride bounds how many domains a sweep measures between
// cancellation checks; a power of two so the check is a mask.
const ctxCheckStride = 1024

// errForeignTable refuses a sweep into an aggregator whose NSSet IDs are
// not the engine's.
var errForeignTable = errors.New("openintel: the aggregator is not over the engine's NSSet table")

// recordStream returns the second PCG seed of domain d's measurement on
// day: the splitmix64 finalizer of the pair, so neighbouring days and
// domains start far apart in the generator's state.
func recordStream(day clock.Day, d dnsdb.DomainID) uint64 {
	x := uint64(uint32(day))<<32 | uint64(uint32(d))
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// sweepRand is a sweep's random source: one PCG behind one Rand, seeded
// again for every domain measured.
type sweepRand struct {
	src rand.PCG
	rng *rand.Rand
}

// sweepRands recycles the sweeps' sources: a worker sweeping day after
// day takes back the one its previous day put back, so a day allocates
// none.
var sweepRands = sync.Pool{New: func() any {
	r := new(sweepRand)
	r.rng = rand.New(&r.src)
	return r
}}

// RunDayContext sweeps the given day: every domain once, or, on an engine
// from Restrict, every domain the demand holds on that day. Results are
// added by NSSet ID to agg (if non-nil), which must be an aggregator over
// the engine's NSSet table (NSSetTable) — one over another table is
// refused with an error before anything is measured — and passed to each
// (if non-nil). Within a
// day, domains are visited in slot order, mirroring a platform that works
// through its measurement list over the day. Each measurement draws from
// a PCG seeded with the engine's seed and recordStream(day, domain), one
// source (recycled from day to day) re-seeded per domain, so a record
// does not depend on which other domains the day measures. The sweep checks ctx every
// ctxCheckStride domains and returns ctx.Err() when the run is cancelled,
// leaving agg partially filled — callers that care about exactness (the
// checkpointed study pipeline) discard the partial aggregator and re-run
// the day on resume.
func (e *Engine) RunDayContext(ctx context.Context, day clock.Day, agg *nsset.Aggregator, each func(Record)) error {
	if agg != nil && agg.Interner() != e.table {
		return errForeignTable
	}
	r := sweepRands.Get().(*sweepRand)
	defer sweepRands.Put(r)
	base := day.Start()
	for i, d := range e.order {
		if i&(ctxCheckStride-1) == 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			default:
			}
		}
		if e.want != nil && !e.want(e.ids[d], day) {
			continue
		}
		r.src.Seed(e.seed, recordStream(day, d))
		t := base.Add(time.Duration(e.slot[d]) * time.Second)
		rec := e.MeasureAt(r.rng, d, t)
		if agg != nil {
			agg.AddID(e.ids[d], rec.Time, rec.Status, rec.RTT)
		}
		if each != nil {
			each(rec)
		}
	}
	return nil
}

// slotOrder returns domain IDs sorted by daily slot, ties in ID order, so
// emission is in time order: each domain's slot and ID packed into one
// key, slot above ID, and the keys sorted. Slots never change, so
// NewEngine computes it once.
func (e *Engine) slotOrder() []dnsdb.DomainID {
	keys := make([]uint64, len(e.slot))
	for d, s := range e.slot {
		keys[d] = uint64(s)<<32 | uint64(d)
	}
	slices.Sort(keys)
	out := make([]dnsdb.DomainID, len(keys))
	for i, k := range keys {
		out[i] = dnsdb.DomainID(uint32(k))
	}
	return out
}
