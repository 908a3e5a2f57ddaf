package rsdos

import (
	"cmp"
	"slices"

	"dnsddos/internal/clock"
	"dnsddos/internal/netx"
	"dnsddos/internal/packet"
)

// track.go is the incremental core of the RSDoS curation: a Tracker folds
// each qualifying window observation into its victim's open run as it
// arrives, in any order, and finalizes attack records as soon as the
// window watermark guarantees they can no longer be extended. The merge
// is sums and maxima, so the order observations arrive in cannot change
// an attack but for its FirstPort, which the earliest window's earliest
// arrival sets. Only a Fold drives one: Infer folds a whole feed, the
// session folds the feed as it is drawn, and the streaming pipeline
// (internal/stream) folds the same feed as it is delivered, so the three
// cannot diverge semantically.

// candidate is one open run: qualifying observations of one victim taken
// so far, each window within MaxGapWindows+1 of the next. Its two lists
// start out in its own buffers — eight ports hold the seven a scenario
// component draws at most, three protocols are all the models emit — and
// move to the heap by append when a run outgrows them (one merging
// components with different ports can), so a candidate must not be
// copied.
type candidate struct {
	// next links the victim's next open run, or a released candidate into
	// the tracker's free list.
	next *candidate
	atk  Attack
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

// start makes c the run of o alone; add then folds o in.
func (c *candidate) start(o *WindowObs) {
	c.atk = Attack{
		Victim:      o.Victim,
		StartWindow: o.Window,
		EndWindow:   o.Window,
		FirstPort:   topPort(o.Ports),
	}
	c.ports, c.protos = c.portBuf[:0], c.protoBuf[:0]
}

// add folds o, which lies within reach of c's span, into c. An earlier
// window takes FirstPort; at c's first window the earlier arrival keeps
// it.
func (c *candidate) add(o *WindowObs) {
	if o.Window < c.atk.StartWindow {
		c.atk.StartWindow, c.atk.FirstPort = o.Window, topPort(o.Ports)
	}
	if o.Window > c.atk.EndWindow {
		c.atk.EndWindow = o.Window
	}
	c.atk.TotalPackets += o.Packets
	c.raise(o.PeakPPM, int32(o.Slash16), o.UniqueDsts)
	c.protos = addProto(c.protos, o.Proto, o.Packets)
	for _, pc := range o.Ports {
		c.ports = AddPort(c.ports, pc.Port, pc.N)
	}
}

// merge folds d, a run that lies wholly before c, into c: an observation
// bridged them. d's first window is the earlier, so it keeps FirstPort.
func (c *candidate) merge(d *candidate) {
	c.atk.StartWindow, c.atk.FirstPort = d.atk.StartWindow, d.atk.FirstPort
	c.atk.TotalPackets += d.atk.TotalPackets
	c.raise(d.atk.PeakPPM, d.atk.MaxSlash16, d.atk.UniqueDsts)
	for _, pc := range d.protos {
		c.protos = addProto(c.protos, pc.proto, pc.n)
	}
	for _, pc := range d.ports {
		c.ports = AddPort(c.ports, pc.Port, pc.N)
	}
}

// raise takes each of the three maxima that is larger. A `>`, not the
// builtin max: a NaN rate never passes it, so which observation carries
// one cannot matter.
func (c *candidate) raise(ppm float64, slash16 int32, dsts int64) {
	if ppm > c.atk.PeakPPM {
		c.atk.PeakPPM = ppm
	}
	if slash16 > c.atk.MaxSlash16 {
		c.atk.MaxSlash16 = slash16
	}
	if dsts > c.atk.UniqueDsts {
		c.atk.UniqueDsts = dsts
	}
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
// Observations may arrive in any order; a Fold closes windows below its
// watermark, which no later observation may lie in. Finalized attacks
// carry ID 0 — feed positions are a whole-feed property the caller
// assigns (a Fold numbers its finished feed; the streaming pipeline
// numbers in emission order).
//
// A candidate's storage outlives its run: one finalized by expire, or
// merged into another, goes on a free list, which a new run takes from
// before a slab is cut, so the tracker holds the most runs ever open at
// once, not one per attack.
type Tracker struct {
	cfg Config
	// open maps a victim to its open runs, linked by next, latest first.
	// Their spans are more than MaxGapWindows+1 windows apart: an
	// observation within reach of two merges them.
	open map[netx.Addr]*candidate
	runs int // open runs
	// slab is the chunk new candidates are cut from. A full chunk is left
	// to its candidates and replaced, so a candidate never moves.
	slab []candidate
	cut  int        // candidates cut from slabs
	free *candidate // released candidates, linked by next
	// pending holds the attacks finalized since the fold last took them.
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

// take folds one qualifying observation into the victim's run within
// MaxGapWindows+1 windows of it, or starts a run when none is. Gaps are
// judged by window distance, not by the presence of sub-threshold
// windows. An observation between two runs within reach of both bridges
// them; no third run can be within reach.
func (tr *Tracker) take(o *WindowObs) {
	reach := int64(tr.cfg.MaxGapWindows) + 1
	var prev *candidate
	c := tr.open[o.Victim]
	// the runs that start past o's reach come first
	for c != nil && int64(c.atk.StartWindow-o.Window) > reach {
		prev, c = c, c.next
	}
	if c == nil || int64(o.Window-c.atk.EndWindow) > reach {
		n := tr.newCandidate()
		n.start(o)
		n.next = c
		if prev == nil {
			tr.open[o.Victim] = n
		} else {
			prev.next = n
		}
		c = n
	} else if d := c.next; d != nil && int64(o.Window-d.atk.EndWindow) <= reach {
		c.merge(d)
		c.next = d.next
		tr.release(d)
	}
	c.add(o)
}

// newCandidate returns storage for a new run: a released one's, or the
// next of the slab.
func (tr *Tracker) newCandidate() *candidate {
	tr.runs++
	if c := tr.free; c != nil {
		tr.free, c.next = c.next, nil
		return c
	}
	if len(tr.slab) == cap(tr.slab) {
		tr.slab = make([]candidate, 0, candidateChunk)
	}
	tr.slab = tr.slab[:len(tr.slab)+1]
	tr.cut++
	return &tr.slab[len(tr.slab)-1]
}

// release puts a run's storage on the free list.
func (tr *Tracker) release(c *candidate) {
	tr.runs--
	c.next, tr.free = tr.free, c
}

// finalize curates one run into pending (dropped when it never reached
// the whole-attack packet floor).
func (tr *Tracker) finalize(c *candidate) {
	if c.atk.TotalPackets < tr.cfg.MinTotalPackets {
		return
	}
	finishAttack(&c.atk, c.ports, c.protos)
	tr.pending = append(tr.pending, c.atk)
}

// expire finalizes into pending every run that no window after closed can
// extend, and releases its storage.
func (tr *Tracker) expire(closed clock.Window) {
	reach := clock.Window(tr.cfg.MaxGapWindows) + 1
	for v, c := range tr.open {
		// the nearest window that could still merge is EndWindow + reach;
		// the runs whose one is closed are the chain's tail, the earliest
		var prev *candidate
		for c != nil && closed < c.atk.EndWindow+reach {
			prev, c = c, c.next
		}
		if prev == nil {
			delete(tr.open, v)
		} else {
			prev.next = nil
		}
		for c != nil {
			next := c.next
			tr.finalize(c)
			tr.release(c)
			c = next
		}
	}
}

// sortAttacks orders a feed by (StartWindow, Victim) — the feed order.
// Per victim, attack spans are disjoint, so the key is unique.
func sortAttacks(attacks []Attack) {
	slices.SortFunc(attacks, func(a, b Attack) int {
		return cmp.Or(cmp.Compare(a.StartWindow, b.StartWindow), cmp.Compare(a.Victim, b.Victim))
	})
}
