// Package stream is the live counterpart of the batch study pipeline: it
// consumes the curated telescope feed — per-(victim, window) observations,
// the granularity of CAIDA's RSDoS feed — as it is delivered, folds it
// through the same rsdos.Fold the batch study curates with, closing
// 5-minute windows as the source's watermark passes them, and joins each
// finalized attack against the measurement-side indexes (core.Pipeline)
// the moment it can no longer change — emitting impact events with
// bounded lag instead of at end of study.
//
// Ordering and exactness:
//
//   - The source announces a watermark (Advance): no later observation
//     lies below it. The stream closes the windows below the watermark
//     minus a configurable lateness allowance; a closed window is final.
//     An observation delivered for a closed window is dropped and
//     counted, never folded in.
//   - Emission is batched per close. Each Batch carries the attacks the
//     close finalized and their joined impact events. Batches are
//     strictly ordered by ClosedThrough; a close that finalizes no attack
//     emits nothing.
//   - With a journal (internal/checkpoint cursor), emission is
//     exactly-once across restarts: the cursor records the last window
//     durably handed to the sink, and a resumed pipeline replays its
//     deterministic input with emission suppressed up to the cursor —
//     state (windows, candidates, attack numbering) is rebuilt, but
//     nothing reaches the sink twice.
//
// Attack IDs are assigned in emission (finalization) order — the only
// order a bounded-lag stream can number by. The batch feed numbers by
// (StartWindow, Victim) rank instead; Canonicalize maps one numbering
// onto the other, after which a stream over the study's own feed writes
// the batch study's events byte for byte.
package stream

import (
	"context"
	"fmt"
	"math"
	"time"

	"dnsddos/internal/checkpoint"
	"dnsddos/internal/clock"
	"dnsddos/internal/core"
	"dnsddos/internal/netx"
	"dnsddos/internal/obs"
	"dnsddos/internal/rsdos"
)

// Batch is one emission step: everything that became final when the
// stream closed the windows through ClosedThrough.
type Batch struct {
	// ClosedThrough is the highest closed window as of this batch; all
	// batch contents concern windows at or below it.
	ClosedThrough clock.Window
	// Attacks are the attacks finalized by this close, in emission
	// order with stream-assigned sequential IDs.
	Attacks []rsdos.Attack
	// Events are the joined impact events of those attacks.
	Events []core.Event
}

// Sink receives emitted batches. Emit must be durable when it returns
// nil: the pipeline journals the cursor right after, and a resumed run
// will not re-deliver the batch.
type Sink interface {
	Emit(Batch) error
}

// OffsetSink is optionally implemented by file-backed sinks; the byte
// offset after each accepted batch is journaled so a resume can truncate
// a partial write from a crash.
type OffsetSink interface {
	Offset() int64
}

// Pipeline is the streaming join. Not safe for concurrent use; drive it
// from one goroutine (the feed's).
type Pipeline struct {
	ctx  context.Context
	join *core.Pipeline
	sink Sink
	fold *rsdos.Fold

	journal *checkpoint.Dir
	// suppress is true while a resumed run replays input the sink already
	// holds; resumed is the journaled frontier being replayed up to.
	suppress bool
	resumed  checkpoint.Cursor

	// watermark is the source's latest (Advance) and maxSeen the highest
	// window accepted, both math.MinInt64 before the first
	watermark, maxSeen clock.Window
	lastClosed         clock.Window
	haveClosed         bool
	attackSeq          int
	eventsOut          int64
	closed             bool

	// lastAttackWin/lastAttackVictim identify the most recently finalized
	// attack — journaled with the cursor so a diverging resume replay can
	// name the offending (window, victim) pair on both sides.
	lastAttackWin    clock.Window
	lastAttackVictim netx.Addr
	haveLastAttack   bool

	lateness clock.Window
	rsdosCfg rsdos.Config

	lateDrops int64

	// hookAfterEmit, when set by same-package tests, runs between the
	// sink accepting a batch and the cursor journaling it — the
	// accept/sync boundary a crash can land on.
	hookAfterEmit func() error

	m streamMetrics
}

// Option configures a Pipeline at construction.
type Option func(*Pipeline)

// WithLateness sets the watermark lateness allowance in windows
// (default 1): once the source's watermark reaches w, the windows below
// w minus the allowance close. Larger values absorb more delivery delay
// at the cost of emission lag.
func WithLateness(n int) Option {
	return func(p *Pipeline) { p.lateness = clock.Window(max(n, 0)) }
}

// WithRSDoS sets the curation thresholds (default rsdos.DefaultConfig).
func WithRSDoS(cfg rsdos.Config) Option {
	return func(p *Pipeline) { p.rsdosCfg = cfg }
}

// WithJournal persists the emission frontier to dir after every accepted
// batch, enabling exactly-once emission across restarts. A journal that
// holds a cursor is resumed: emission is suppressed until the stream
// passes the journaled frontier, so a batch already in the sink is never
// delivered again. Whether to resume is decided when dir is opened
// (study.OpenJournal): a freshly created journal has no cursor, and the
// stream emits from its first batch.
func WithJournal(dir *checkpoint.Dir) Option {
	return func(p *Pipeline) { p.journal = dir }
}

// WithMetrics publishes stream instrumentation — lag, late drops,
// per-batch join latency — into reg (all volatile: they describe this
// run, not the deterministic result).
func WithMetrics(reg *obs.Registry) Option {
	return func(p *Pipeline) { p.m = newStreamMetrics(reg) }
}

// WithContext threads ctx into the per-batch joins (default Background).
func WithContext(ctx context.Context) Option {
	return func(p *Pipeline) { p.ctx = ctx }
}

// New builds a streaming pipeline joining finalized attacks through join
// and emitting to sink.
func New(join *core.Pipeline, sink Sink, opts ...Option) (*Pipeline, error) {
	p := &Pipeline{
		ctx:       context.Background(),
		join:      join,
		sink:      sink,
		watermark: math.MinInt64,
		maxSeen:   math.MinInt64,
		lateness:  1,
		rsdosCfg:  rsdos.DefaultConfig(),
	}
	for _, o := range opts {
		o(p)
	}
	p.fold = rsdos.NewFold(p.rsdosCfg)
	if p.m.reg == nil {
		p.m = newStreamMetrics(obs.New())
	}
	if p.journal != nil {
		c, ok, err := p.journal.LoadCursor()
		if err != nil {
			return nil, err
		}
		if ok {
			p.resumed, p.suppress = c, true
		}
	}
	return p, nil
}

// Resumed returns the journaled frontier the pipeline is replaying up
// to, when resuming (false for fresh runs). File sinks truncate to
// Cursor.SinkBytes before the first Offer.
func (p *Pipeline) Resumed() (checkpoint.Cursor, bool) {
	return p.resumed, p.suppress
}

// Offer takes one observation of the feed; the pipeline keeps a copy,
// nothing of o itself. The boolean reports whether it was accepted; false
// means it was late — its window is already closed (after Close, every
// window is) — and was dropped and counted. Offer never emits: windows
// close on Advance.
func (p *Pipeline) Offer(o *rsdos.WindowObs) bool {
	if p.closed || (p.haveClosed && o.Window <= p.lastClosed) {
		p.lateDrops++
		p.m.lateDrops.Inc()
		return false
	}
	p.fold.Take(o)
	p.maxSeen = max(p.maxSeen, o.Window)
	return true
}

// Advance takes the source's watermark: no observation delivered later
// lies below w, as the source sees it. The windows below w minus the
// lateness allowance close; the attacks that finalizes are joined and
// handed to the sink as one batch before Advance returns, so nothing is
// ever queued between intake and emission. The error is a sink, journal
// or join failure — the stream is then wedged at the journaled frontier
// and can be resumed.
func (p *Pipeline) Advance(w clock.Window) error {
	if p.closed {
		return fmt.Errorf("stream: Advance after Close")
	}
	p.watermark = max(p.watermark, w)
	var err error
	if ct := p.watermark - p.lateness - 1; !p.haveClosed || ct > p.lastClosed {
		err = p.step(ct)
	}
	p.publishGauges()
	return err
}

// Close ends the stream: every remaining window is closed, every open
// candidate finalized, and the last batch emitted.
func (p *Pipeline) Close() error {
	if p.closed {
		return nil
	}
	p.closed = true
	ct := max(p.maxSeen, p.watermark)
	if p.haveClosed {
		ct = max(ct, p.lastClosed+1)
	} else if ct == math.MinInt64 {
		return nil // nothing was offered or announced
	}
	err := p.step(ct)
	p.publishGauges()
	return err
}

// step advances the emission frontier to ct: the fold closes every
// window through ct, and the attacks that close finalizes are joined and
// emitted (unless suppressed by a resume replay). After Close, the fold
// closes every window.
func (p *Pipeline) step(ct clock.Window) error {
	p.lastClosed, p.haveClosed = ct, true
	through := ct + 1
	if p.closed {
		through = math.MaxInt64
	}
	attacks := p.fold.Finalize(through)
	if len(attacks) == 0 {
		return nil
	}

	if p.suppress {
		if ct <= p.resumed.ClosedThrough {
			// Replay of a batch the sink already holds: rebuild state
			// (the fold consumed the observations, the attack numbering
			// advances) but emit nothing and skip the join.
			p.attackSeq += len(attacks)
			p.noteLastAttack(attacks)
			return nil
		}
		// First batch past the journaled frontier: the replay must have
		// reproduced the journaled run exactly, or the sink's contents
		// and ours disagree. Report both sides of the mismatch — the
		// replay's frontier attack and the journaled one — so the
		// operator can locate the offending input, not just a count.
		if p.attackSeq != p.resumed.Attacks {
			return fmt.Errorf("stream: resume replay diverged at frontier %v: replay finalized %d attacks (last %s), journal recorded %d (last %s)",
				p.resumed.ClosedThrough,
				p.attackSeq, describeAttack(p.lastAttackWin, p.lastAttackVictim, p.haveLastAttack),
				p.resumed.Attacks, describeAttack(p.resumed.LastAttackWindow, p.resumed.LastAttackVictim, p.resumed.HaveLast))
		}
		p.eventsOut = p.resumed.Events
		p.suppress = false
	}

	for i := range attacks {
		p.attackSeq++
		attacks[i].ID = int32(p.attackSeq)
	}
	p.noteLastAttack(attacks)
	t0 := time.Now()
	events, err := p.join.EventsContext(p.ctx, attacks)
	if err != nil {
		return err
	}
	p.m.joinLatency.Observe(time.Since(t0))
	if err := p.sink.Emit(Batch{ClosedThrough: ct, Attacks: attacks, Events: events}); err != nil {
		return err
	}
	if p.hookAfterEmit != nil {
		// the accept/sync boundary: the sink durably holds the batch, the
		// cursor does not yet record it
		if err := p.hookAfterEmit(); err != nil {
			return err
		}
	}
	p.m.batches.Inc()
	p.m.attacksFinalized.Add(int64(len(attacks)))
	p.m.eventsEmitted.Add(int64(len(events)))
	p.eventsOut += int64(len(events))
	if p.journal != nil {
		c := checkpoint.Cursor{
			ClosedThrough:    ct,
			Attacks:          p.attackSeq,
			Events:           p.eventsOut,
			LastAttackWindow: p.lastAttackWin,
			LastAttackVictim: p.lastAttackVictim,
			HaveLast:         p.haveLastAttack,
		}
		if off, ok := p.sink.(OffsetSink); ok {
			c.SinkBytes = off.Offset()
		}
		if err := p.journal.WriteCursor(c); err != nil {
			return err
		}
	}
	return nil
}

// noteLastAttack records the (window, victim) identity of the most
// recently finalized attack for the cursor journal.
func (p *Pipeline) noteLastAttack(attacks []rsdos.Attack) {
	last := attacks[len(attacks)-1]
	p.lastAttackWin, p.lastAttackVictim, p.haveLastAttack = last.StartWindow, last.Victim, true
}

// describeAttack renders one side of a divergence report.
func describeAttack(w clock.Window, v netx.Addr, have bool) string {
	if !have {
		return "none"
	}
	return fmt.Sprintf("window %d victim %s", w, v)
}

// ClosedThrough returns the current emission frontier (false before the
// first close).
func (p *Pipeline) ClosedThrough() (clock.Window, bool) {
	return p.lastClosed, p.haveClosed
}

// LagWindows returns how many windows the emission frontier trails the
// source's watermark — the stream's end-to-end lag, lateness+1 while
// the feed flows. It is not measured from the newest window offered:
// the observations of a long attack arrive ahead of the watermark.
func (p *Pipeline) LagWindows() int64 {
	if !p.haveClosed || p.closed {
		return 0
	}
	return int64(p.watermark - p.lastClosed)
}

// LateDrops returns how many observations were dropped for arriving
// after their window closed.
func (p *Pipeline) LateDrops() int64 { return p.lateDrops }

func (p *Pipeline) publishGauges() {
	if p.watermark > math.MinInt64 {
		p.m.watermark.Set(int64(p.watermark))
	}
	if p.maxSeen > math.MinInt64 {
		p.m.maxSeen.Set(int64(p.maxSeen))
	}
	p.m.lag.Set(p.LagWindows())
	p.m.candidates.Set(int64(p.fold.Open()))
}

// streamMetrics is the stream.* instrument set — all volatile; a live
// stream's lag and drop counts describe the run, not the result.
type streamMetrics struct {
	reg              *obs.Registry
	lateDrops        *obs.Counter
	batches          *obs.Counter
	attacksFinalized *obs.Counter
	eventsEmitted    *obs.Counter
	watermark        *obs.Gauge
	maxSeen          *obs.Gauge
	lag              *obs.Gauge
	candidates       *obs.Gauge
	joinLatency      *obs.Histogram
}

func newStreamMetrics(reg *obs.Registry) streamMetrics {
	if reg == nil {
		reg = obs.New()
	}
	return streamMetrics{
		reg:              reg,
		lateDrops:        reg.Counter("stream.late_drops", obs.Volatile()),
		batches:          reg.Counter("stream.batches_emitted", obs.Volatile()),
		attacksFinalized: reg.Counter("stream.attacks_finalized", obs.Volatile()),
		eventsEmitted:    reg.Counter("stream.events_emitted", obs.Volatile()),
		watermark:        reg.Gauge("stream.watermark", obs.Volatile()),
		maxSeen:          reg.Gauge("stream.max_seen_window", obs.Volatile()),
		lag:              reg.Gauge("stream.lag_windows", obs.Volatile()),
		candidates:       reg.Gauge("stream.open_candidates", obs.Volatile()),
		joinLatency:      reg.Histogram("stream.join_latency", obs.Volatile()),
	}
}
