package rsdos

import (
	"cmp"
	"math"
	"slices"

	"dnsddos/internal/clock"
	"dnsddos/internal/packet"
)

// track.go is the incremental core of the RSDoS curation, the runs of a
// Fold: each qualifying window observation is folded into its victim's
// open run as it arrives, in any order, and attack records are finalized
// as soon as the window watermark guarantees they can no longer be
// extended. The merge is sums and maxima, so the order observations
// arrive in cannot change an attack but for its FirstPort, which the
// earliest window's earliest arrival sets. Infer folds a whole feed, the
// session folds the feed as it is drawn, and the streaming pipeline
// (internal/stream) folds the same feed as it is delivered, all through
// one Fold, so the three cannot diverge semantically.

// candidate is one open run: qualifying observations of one victim taken
// so far, each window within MaxGapWindows+1 of the next. Its two lists
// start out in its own buffers — eight ports hold the seven a scenario
// component draws at most, three protocols are all the models emit — and
// move to the heap by append when a run outgrows them (one merging
// components with different ports can), so a candidate must not be
// copied.
type candidate struct {
	// next links the victim's next open run, or a released candidate into
	// the fold's free list; prev the victim's previous open run.
	next, prev *candidate
	// filed is the window the open run is filed under (Fold.dues),
	// noWindow once the candidate is released.
	filed clock.Window
	atk   Attack
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

// due is an open run filed under at, the window whose close expires it,
// EndWindow + MaxGapWindows + 1, as the run stood when it was filed. A
// run extended since expires later and is filed again when at comes. An
// entry whose at is not its candidate's filed is stale: the run it filed
// was merged into another and released. A candidate taken again by a new
// run and filed under the same window leaves two equal entries, which
// pop in the same close, the first of them taken as the run's.
type due struct {
	at clock.Window
	c  *candidate
}

// noWindow is a released candidate's filed window: no entry's.
const noWindow = clock.Window(math.MinInt64)

// qualifies reports whether a window observation counts as attack
// evidence under the thresholds.
func (f *Fold) qualifies(o *WindowObs) bool {
	return o.Packets >= f.cfg.MinPackets && o.Slash16 >= f.cfg.MinSlash16
}

// take folds one qualifying observation into the victim's run within
// MaxGapWindows+1 windows of it, or starts a run when none is. Gaps are
// judged by window distance, not by the presence of sub-threshold
// windows. An observation between two runs within reach of both bridges
// them; no third run can be within reach.
func (f *Fold) take(o *WindowObs) {
	reach := int64(f.cfg.MaxGapWindows) + 1
	var prev *candidate
	c := f.open[o.Victim]
	// the runs that start past o's reach come first
	for c != nil && int64(c.atk.StartWindow-o.Window) > reach {
		prev, c = c, c.next
	}
	if c == nil || int64(o.Window-c.atk.EndWindow) > reach {
		n := f.newCandidate()
		n.start(o)
		n.next, n.prev = c, prev
		if c != nil {
			c.prev = n
		}
		if prev == nil {
			f.open[o.Victim] = n
		} else {
			prev.next = n
		}
		f.file(n)
		c = n
	} else if d := c.next; d != nil && int64(o.Window-d.atk.EndWindow) <= reach {
		c.merge(d)
		c.next = d.next
		if d.next != nil {
			d.next.prev = c
		}
		f.release(d)
	}
	c.add(o)
}

// newCandidate returns storage for a new run: a released one's, or the
// next of the slab.
func (f *Fold) newCandidate() *candidate {
	f.runs++
	if c := f.free; c != nil {
		f.free, c.next = c.next, nil
		return c
	}
	if len(f.slab) == cap(f.slab) {
		f.slab = make([]candidate, 0, candidateChunk)
	}
	f.slab = f.slab[:len(f.slab)+1]
	f.cut++
	return &f.slab[len(f.slab)-1]
}

// release puts a run's storage on the free list.
func (f *Fold) release(c *candidate) {
	f.runs--
	c.filed, c.prev = noWindow, nil
	c.next, f.free = f.free, c
}

// finalize curates one run into pending (dropped when it never reached
// the whole-attack packet floor).
func (f *Fold) finalize(c *candidate) {
	if c.atk.TotalPackets < f.cfg.MinTotalPackets {
		return
	}
	finishAttack(&c.atk, c.ports, c.protos)
	f.pending = append(f.pending, c.atk)
}

// expire finalizes into pending every run that no window after closed can
// extend, and releases its storage. It visits only the runs filed under a
// window up to closed: those it finalizes, those extended since they were
// filed, which it files again, and stale entries.
func (f *Fold) expire(closed clock.Window) {
	for len(f.dues) > 0 && f.dues[0].at <= closed {
		e := f.popDue()
		c := e.c
		if e.at != c.filed {
			continue
		}
		// the nearest window that could still merge is EndWindow + reach
		if c.atk.EndWindow+clock.Window(f.cfg.MaxGapWindows)+1 > closed {
			f.file(c)
			continue
		}
		switch {
		case c.prev != nil:
			c.prev.next = c.next
		case c.next != nil:
			f.open[c.atk.Victim] = c.next
		default:
			delete(f.open, c.atk.Victim)
		}
		if c.next != nil {
			c.next.prev = c.prev
		}
		f.finalize(c)
		f.release(c)
	}
}

// file files run c under the window that expires it as it stands.
func (f *Fold) file(c *candidate) {
	c.filed = c.atk.EndWindow + clock.Window(f.cfg.MaxGapWindows) + 1
	f.dues = append(f.dues, due{at: c.filed, c: c})
	// sift up
	for i := len(f.dues) - 1; i > 0; {
		parent := (i - 1) / 2
		if f.dues[parent].at <= f.dues[i].at {
			break
		}
		f.dues[parent], f.dues[i] = f.dues[i], f.dues[parent]
		i = parent
	}
}

// popDue removes and returns the entry filed under the earliest window.
func (f *Fold) popDue() due {
	h := f.dues
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = due{} // drop the candidate pointer
	h = h[:last]
	// sift down
	for i := 0; ; {
		least, l, r := i, 2*i+1, 2*i+2
		if l < len(h) && h[l].at < h[least].at {
			least = l
		}
		if r < len(h) && h[r].at < h[least].at {
			least = r
		}
		if least == i {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	f.dues = h
	return top
}

// sortAttacks orders a feed by (StartWindow, Victim) — the feed order.
// Per victim, attack spans are disjoint, so the key is unique.
func sortAttacks(attacks []Attack) {
	slices.SortFunc(attacks, func(a, b Attack) int {
		return cmp.Or(cmp.Compare(a.StartWindow, b.StartWindow), cmp.Compare(a.Victim, b.Victim))
	})
}
