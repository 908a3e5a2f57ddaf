// Package openintel reproduces the active-measurement platform of §3.2: a
// daily sweep that issues an explicit NS query for every registered domain
// through the agnostic resolver, recording resolution time and response
// status, and aggregating per-NSSet 5-minute metrics (§4.1).
//
// Like the real platform, the sweep spreads each day's queries over the
// whole day (each domain has a stable slot, so a 5-minute attack window
// catches a pseudo-random subset of a large NSSet's domains — the reason
// the paper requires at least five measured domains per attack window).
package openintel

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
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
	// nssets and ids cache the NSSet key of each domain and its ID.
	nssets []nsset.Key
	ids    []nsset.ID
	// slot caches each domain's second-of-day measurement slot.
	slot []int32
	// order is the domains sorted by slot: every day's visiting order.
	order []dnsdb.DomainID
}

// NewEngine builds an engine. seed determines the per-domain daily slots
// and all query randomness, making sweeps reproducible.
func NewEngine(db *dnsdb.DB, res *resolver.Resolver, seed uint64) *Engine {
	e := &Engine{db: db, res: res, seed: seed, table: new(nsset.Interner)}
	e.nssets = make([]nsset.Key, len(db.Domains))
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
		e.nssets[i], e.ids[i] = e.table.Intern(addrs)
		e.slot[i] = int32(rng.IntN(86400))
	}
	e.order = e.slotOrder()
	return e
}

// NSSetOf returns the cached NSSet key of a domain.
func (e *Engine) NSSetOf(d dnsdb.DomainID) nsset.Key { return e.nssets[d] }

// NSSetTable returns the engine's table of NSSets. A sweep into an
// aggregator built over it (nsset.NewAggregatorOver) adds by ID.
func (e *Engine) NSSetTable() *nsset.Interner { return e.table }

// DomainNSSets returns the engine's per-domain NSSet key cache, indexed
// by DomainID. Building these keys is O(domains × set size); the join
// pipeline reuses this cache (core.WithDomainNSSets) instead of
// recomputing it from the DB. The returned slice is shared and must be
// treated as read-only.
func (e *Engine) DomainNSSets() []nsset.Key { return e.nssets }

// MeasureAt measures one domain at time t and returns the record.
func (e *Engine) MeasureAt(rng *rand.Rand, d dnsdb.DomainID, t time.Time) Record {
	o := e.res.Resolve(rng, d, t)
	return Record{
		Domain: d,
		Time:   t,
		NSSet:  e.nssets[d],
		Status: o.Status,
		RTT:    o.RTT,
		Tries:  o.Tries,
	}
}

// ctxCheckStride bounds how many domains a sweep measures between
// cancellation checks; a power of two so the check is a mask.
const ctxCheckStride = 1024

// RunDayContext sweeps every domain once on the given day. Results are
// folded into agg (if non-nil; by ID when agg is over the engine's table,
// by key otherwise) and passed to each (if non-nil). Within a
// day, domains are visited in slot order, mirroring a platform that works
// through its measurement list over the day. The sweep checks ctx every
// ctxCheckStride domains and returns ctx.Err() when the run is cancelled,
// leaving agg partially filled — callers that care about exactness (the
// checkpointed study pipeline) discard the partial aggregator and re-run
// the day on resume.
func (e *Engine) RunDayContext(ctx context.Context, day clock.Day, agg *nsset.Aggregator, each func(Record)) error {
	rng := rand.New(rand.NewPCG(e.seed, uint64(day)+1))
	base := day.Start()
	byID := agg != nil && agg.Interner() == e.table
	for i, d := range e.order {
		if i&(ctxCheckStride-1) == 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			default:
			}
		}
		t := base.Add(time.Duration(e.slot[d]) * time.Second)
		rec := e.MeasureAt(rng, d, t)
		switch {
		case byID:
			agg.AddID(e.ids[d], rec.Time, rec.Status, rec.RTT)
		case agg != nil:
			agg.Add(rec.NSSet, rec.Time, rec.Status, rec.RTT)
		}
		if each != nil {
			each(rec)
		}
	}
	return nil
}

// slotOrder returns domain IDs sorted by daily slot, ties in ID order (a
// counting sort: slots are seconds of the day), so emission is in time
// order. Slots never change, so NewEngine computes it once.
func (e *Engine) slotOrder() []dnsdb.DomainID {
	counts := make([]int32, 86400+1)
	for _, s := range e.slot {
		counts[s+1]++
	}
	for i := 1; i < len(counts); i++ {
		counts[i] += counts[i-1]
	}
	out := make([]dnsdb.DomainID, len(e.slot))
	next := counts
	for d, s := range e.slot {
		out[next[s]] = dnsdb.DomainID(d)
		next[s]++
	}
	return out
}

// RunRangeContext sweeps days [from, to] inclusive, stopping at the
// first cancelled day.
func (e *Engine) RunRangeContext(ctx context.Context, from, to clock.Day, agg *nsset.Aggregator, each func(Record)) error {
	for d := from; d <= to; d++ {
		if err := e.RunDayContext(ctx, d, agg, each); err != nil {
			return err
		}
	}
	return nil
}

// RecordWriter streams records as JSON lines.
type RecordWriter struct {
	enc *json.Encoder
}

// NewRecordWriter wraps w.
func NewRecordWriter(w io.Writer) *RecordWriter {
	return &RecordWriter{enc: json.NewEncoder(w)}
}

// Write emits one record.
func (rw *RecordWriter) Write(r Record) error { return rw.enc.Encode(jsonRecord(r)) }

// RecordJSON is the on-disk JSON form of a Record.
type RecordJSON struct {
	Domain int32  `json:"domain"`
	Time   string `json:"time"`
	NSSet  string `json:"nsset"`
	Status string `json:"status"`
	RTTus  int64  `json:"rtt_us"`
	Tries  int    `json:"tries"`
}

func jsonRecord(r Record) RecordJSON {
	return RecordJSON{
		Domain: int32(r.Domain),
		Time:   r.Time.UTC().Format(time.RFC3339),
		NSSet:  r.NSSet.String(),
		Status: r.Status.String(),
		RTTus:  r.RTT.Microseconds(),
		Tries:  r.Tries,
	}
}

// ReadRecords decodes a JSON-lines stream produced by RecordWriter; only
// fields needed by offline analysis round-trip (NSSet keys render as the
// human-readable set form and are not re-parsed).
func ReadRecords(r io.Reader, each func(RecordJSON) error) error {
	dec := json.NewDecoder(r)
	for {
		var rec RecordJSON
		if err := dec.Decode(&rec); err != nil {
			if err == io.EOF {
				return nil
			}
			return fmt.Errorf("openintel: decoding records: %w", err)
		}
		if err := each(rec); err != nil {
			return err
		}
	}
}
