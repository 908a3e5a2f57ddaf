package rsdos

import (
	"cmp"
	"slices"

	"dnsddos/internal/clock"
	"dnsddos/internal/netx"
	"dnsddos/internal/packet"
)

// track.go is the incremental core of the RSDoS curation: a Tracker
// consumes qualifying window observations in window order and finalizes
// attack records as soon as the window watermark guarantees they can no
// longer be extended. Infer feeds it through a Fold (window lists, feed,
// finish); the streaming pipeline (internal/stream) drives the same
// Tracker window-by-window, so the two paths cannot diverge semantically.

// candidate is one open (still extendable) attack. Its two lists start
// out in its own buffers — eight ports hold the seven a scenario component
// draws at most, three protocols are all the models emit — and move to the
// heap by append when an attack outgrows them (one merging components with
// different ports can), so a candidate must not be copied.
type candidate struct {
	atk Attack
	// ports is the attack's merged port list, ascending like an
	// observation's.
	ports []PortCount
	// protos counts packets per attacked protocol, ascending by protocol.
	protos   []protoCount
	portBuf  [8]PortCount
	protoBuf [3]protoCount
}

type protoCount struct {
	proto packet.Protocol
	n     int64
}

// start makes c the open attack whose first window is o.
func (c *candidate) start(o *WindowObs) {
	c.atk = Attack{
		Victim:      o.Victim,
		StartWindow: o.Window,
		EndWindow:   o.Window,
		FirstPort:   topPort(o.Ports),
	}
	c.ports, c.protos = c.portBuf[:0], c.protoBuf[:0]
}

// addProto is AddPort for the protocol list.
func addProto(protos []protoCount, p packet.Protocol, n int64) []protoCount {
	i := 0
	for i < len(protos) && protos[i].proto < p {
		i++
	}
	if i < len(protos) && protos[i].proto == p {
		protos[i].n += n
		return protos
	}
	return slices.Insert(protos, i, protoCount{proto: p, n: n})
}

// candidateChunk is how many candidates one slab allocation holds.
const candidateChunk = 64

// Tracker incrementally curates WindowObs into attack records.
//
// Observations must arrive in non-decreasing window order per victim
// (global window order satisfies this); the PacketAggregator/Windower
// output and a Fold both do. Finalized attacks carry ID 0 — feed
// positions are a whole-feed property the caller assigns (a Fold numbers
// its finished feed; the streaming pipeline numbers in emission order).
type Tracker struct {
	cfg  Config
	open map[netx.Addr]*candidate
	// slab is the chunk new candidates are cut from. A full chunk is left
	// to its candidates and replaced, so a candidate never moves.
	slab []candidate
	// pending holds attacks finalized by a same-victim successor window
	// (gap exceeded) between Advance calls.
	pending []Attack
}

// NewTracker returns an empty tracker with the given curation thresholds.
func NewTracker(cfg Config) *Tracker {
	return &Tracker{cfg: cfg, open: make(map[netx.Addr]*candidate)}
}

// Qualifies reports whether a window observation counts as attack
// evidence under the thresholds.
func (tr *Tracker) Qualifies(o *WindowObs) bool {
	return o.Packets >= tr.cfg.MinPackets && o.Slash16 >= tr.cfg.MinSlash16
}

// Observe folds one closed window's observation. Non-qualifying
// observations are ignored (gaps are judged by window distance, not by
// the presence of sub-threshold windows, exactly as in the batch path).
func (tr *Tracker) Observe(o WindowObs) {
	if !tr.Qualifies(&o) {
		return
	}
	cur := tr.open[o.Victim]
	if cur != nil && int64(o.Window-cur.atk.EndWindow) > int64(tr.cfg.MaxGapWindows)+1 {
		// the successor takes the finalized candidate's storage and its
		// place in the map
		tr.finalize(cur)
		cur.start(&o)
	} else if cur == nil {
		if len(tr.slab) == cap(tr.slab) {
			tr.slab = make([]candidate, 0, candidateChunk)
		}
		tr.slab = tr.slab[:len(tr.slab)+1]
		cur = &tr.slab[len(tr.slab)-1]
		cur.start(&o)
		tr.open[o.Victim] = cur
	}
	cur.atk.EndWindow = o.Window
	cur.atk.TotalPackets += o.Packets
	if o.PeakPPM > cur.atk.PeakPPM {
		cur.atk.PeakPPM = o.PeakPPM
	}
	if o.Slash16 > cur.atk.MaxSlash16 {
		cur.atk.MaxSlash16 = o.Slash16
	}
	if o.UniqueDsts > cur.atk.UniqueDsts {
		cur.atk.UniqueDsts = o.UniqueDsts
	}
	cur.protos = addProto(cur.protos, o.Proto, o.Packets)
	for _, pc := range o.Ports {
		cur.ports = AddPort(cur.ports, pc.Port, pc.N)
	}
}

// finalize curates one candidate into pending (dropped when it never
// reached the whole-attack packet floor).
func (tr *Tracker) finalize(c *candidate) {
	if c.atk.TotalPackets < tr.cfg.MinTotalPackets {
		return
	}
	finishAttack(&c.atk, c.ports, c.protos)
	tr.pending = append(tr.pending, c.atk)
}

// Advance finalizes every candidate that no window after `closed` can
// extend — all windows up to and including `closed` must be final (the
// caller's watermark guarantees this). It returns the attacks finalized
// since the previous Advance, sorted by (StartWindow, Victim) within the
// batch, IDs unassigned.
func (tr *Tracker) Advance(closed clock.Window) []Attack {
	for v, c := range tr.open {
		// the nearest window that could still merge is
		// EndWindow + MaxGapWindows + 1; once that is closed, no future
		// window can extend the candidate
		if closed >= c.atk.EndWindow+clock.Window(tr.cfg.MaxGapWindows)+1 {
			tr.finalize(c)
			delete(tr.open, v)
		}
	}
	return tr.drain()
}

// Finish finalizes every remaining candidate (end of stream) and returns
// them like Advance does.
func (tr *Tracker) Finish() []Attack {
	for v, c := range tr.open {
		tr.finalize(c)
		delete(tr.open, v)
	}
	return tr.drain()
}

// Open returns the number of open attack candidates.
func (tr *Tracker) Open() int { return len(tr.open) }

// drain returns the pending batch sorted by (StartWindow, Victim) —
// the feed's numbering order, so each batch is a
// contiguous, correctly ordered run of the eventual feed.
func (tr *Tracker) drain() []Attack {
	out := tr.pending
	tr.pending = nil
	sortAttacks(out)
	return out
}

// sortAttacks orders a feed by (StartWindow, Victim) — the feed order.
// Per victim, attack spans are disjoint, so the key is unique.
func sortAttacks(attacks []Attack) {
	slices.SortFunc(attacks, func(a, b Attack) int {
		return cmp.Or(cmp.Compare(a.StartWindow, b.StartWindow), cmp.Compare(a.Victim, b.Victim))
	})
}
