package rsdos

import (
	"cmp"
	"slices"
	"sort"
	"time"

	"dnsddos/internal/clock"
	"dnsddos/internal/netx"
	"dnsddos/internal/packet"
	"dnsddos/internal/telescope"
)

// windowState accumulates one victim's backscatter inside one window.
// Packets arrive one at a time and a capture may name any number of ports,
// so ports stays a map while the window is open; obs freezes it into the
// observation's sorted list.
type windowState struct {
	packets      int64
	minuteCounts [5]int64
	slash16      map[int]struct{}
	dsts         map[netx.Addr]struct{}
	protoPkts    map[packet.Protocol]int64
	ports        map[uint16]int64
}

func newWindowState() *windowState {
	return &windowState{
		slash16:   make(map[int]struct{}),
		dsts:      make(map[netx.Addr]struct{}),
		protoPkts: make(map[packet.Protocol]int64),
		ports:     make(map[uint16]int64),
	}
}

// fold adds one captured packet to the state. w must be the window
// containing ts.
func (st *windowState) fold(t *telescope.Telescope, ts time.Time, p packet.Packet, w clock.Window) {
	st.packets++
	minute := int(ts.Sub(w.Start()) / time.Minute)
	if minute < 0 {
		minute = 0
	}
	if minute > 4 {
		minute = 4
	}
	st.minuteCounts[minute]++
	if idx := t.Slash16Index(p.IP.Dst); idx >= 0 {
		st.slash16[idx] = struct{}{}
	}
	st.dsts[p.IP.Dst] = struct{}{}

	proto, port, hasPort := classifyBackscatter(p)
	st.protoPkts[proto]++
	if hasPort {
		st.ports[port]++
	}
}

// obs freezes the state into the window's observation record.
func (st *windowState) obs(w clock.Window, v netx.Addr) WindowObs {
	o := WindowObs{
		Window:     w,
		Victim:     v,
		Packets:    st.packets,
		Slash16:    len(st.slash16),
		UniqueDsts: int64(len(st.dsts)),
	}
	if len(st.ports) > 0 {
		o.Ports = make([]PortCount, 0, len(st.ports))
		for p, n := range st.ports {
			o.Ports = append(o.Ports, PortCount{Port: p, N: n})
		}
		slices.SortFunc(o.Ports, func(a, b PortCount) int { return cmp.Compare(a.Port, b.Port) })
	}
	for _, c := range st.minuteCounts {
		if float64(c) > o.PeakPPM {
			o.PeakPPM = float64(c)
		}
	}
	var bestN int64 = -1
	for proto, n := range st.protoPkts {
		if n > bestN || (n == bestN && proto < o.Proto) {
			o.Proto, bestN = proto, n
		}
	}
	return o
}

// classifyBackscatter maps a backscatter packet to the protocol and port of
// the attack that elicited it.
func classifyBackscatter(p packet.Packet) (packet.Protocol, uint16, bool) {
	switch {
	case p.TCP != nil:
		// SYN-ACK or RST from the victim: TCP attack on the packet's
		// source port.
		return packet.ProtoTCP, p.TCP.SrcPort, true
	case p.ICMP != nil:
		switch p.ICMP.Type {
		case packet.ICMPDestUnreachable:
			// quoted original datagram: UDP attack
			return packet.ProtoUDP, uint16(p.ICMP.Rest), p.ICMP.Rest != 0
		case packet.ICMPEchoReply:
			return packet.ProtoICMP, 0, false
		default:
			return packet.ProtoICMP, 0, false
		}
	case p.UDP != nil:
		// service reply: UDP attack on the reply's source port
		return packet.ProtoUDP, p.UDP.SrcPort, true
	default:
		return p.IP.Protocol, 0, false
	}
}

// Windower is the watermark-driven window builder shared by the batch
// PacketAggregator (lateness 0) and the streaming pipeline
// (internal/stream): it aggregates packets into per-victim window states,
// keeps every window at or above the watermark open, and closes windows
// as the watermark passes them.
//
// The watermark is the maximum window seen so far minus the lateness
// allowance: a window closes — its observations become final — once a
// packet arrives `lateness+1` or more windows after it. Packets for
// already-closed windows are dropped and counted (LateDrops) instead of
// reopening the window; reprocessing a closed window would emit duplicate
// out-of-order observations downstream, which is exactly the aggregator
// bug this design replaces.
type Windower struct {
	t        *telescope.Telescope
	lateness clock.Window
	// open holds the accumulating per-victim states of every window in
	// [watermark, maxSeen]. Windows with no packets are never
	// materialized.
	open      map[clock.Window]map[netx.Addr]*windowState
	maxSeen   clock.Window
	started   bool
	lateDrops int64
}

// NewWindower builds a windower over the telescope with the given
// lateness allowance (in windows; 0 = a window closes as soon as a later
// window is seen, the historical PacketAggregator behaviour).
func NewWindower(t *telescope.Telescope, lateness int) *Windower {
	if lateness < 0 {
		lateness = 0
	}
	return &Windower{
		t:        t,
		lateness: clock.Window(lateness),
		open:     make(map[clock.Window]map[netx.Addr]*windowState),
	}
}

// Add folds one captured packet and reports whether it was accepted. A
// packet whose window is already below the watermark is dropped (counted
// in LateDrops) and leaves all state unchanged.
func (wd *Windower) Add(ts time.Time, p packet.Packet) bool {
	w := clock.WindowOf(ts)
	if !wd.started {
		wd.maxSeen, wd.started = w, true
	}
	if wm, ok := wd.Watermark(); ok && w < wm {
		wd.lateDrops++
		return false
	}
	if w > wd.maxSeen {
		wd.maxSeen = w
	}
	victims := wd.open[w]
	if victims == nil {
		victims = make(map[netx.Addr]*windowState)
		wd.open[w] = victims
	}
	st := victims[p.IP.Src]
	if st == nil {
		st = newWindowState()
		victims[p.IP.Src] = st
	}
	st.fold(wd.t, ts, p, w)
	return true
}

// Watermark returns the completeness frontier: every window strictly
// below it is closed (or closable), and a packet for such a window is
// late. False until the first packet arrives.
func (wd *Windower) Watermark() (clock.Window, bool) {
	return wd.maxSeen - wd.lateness, wd.started
}

// MaxSeen returns the highest window observed so far (false before the
// first packet).
func (wd *Windower) MaxSeen() (clock.Window, bool) { return wd.maxSeen, wd.started }

// Backlog returns the number of open (non-empty, not yet closed) windows.
func (wd *Windower) Backlog() int { return len(wd.open) }

// LateDrops returns how many packets were dropped for arriving after
// their window closed.
func (wd *Windower) LateDrops() int64 { return wd.lateDrops }

// CloseReady closes every open window strictly below the watermark and
// returns their observations, ordered by (window, victim). Call after
// every Add (or batch of Adds) to drain finished windows.
func (wd *Windower) CloseReady() []WindowObs {
	wm, ok := wd.Watermark()
	if !ok {
		return nil
	}
	return wd.closeBelow(wm)
}

// CloseAll closes every remaining window (end of stream), returning their
// observations ordered by (window, victim). The windower is reset for a
// fresh stream afterwards (the cumulative LateDrops count is kept).
func (wd *Windower) CloseAll() []WindowObs {
	if !wd.started {
		return nil
	}
	out := wd.closeBelow(wd.maxSeen + 1)
	wd.started = false
	return out
}

// closeBelow closes all open windows < limit in window order.
func (wd *Windower) closeBelow(limit clock.Window) []WindowObs {
	if len(wd.open) == 0 {
		return nil
	}
	wins := make([]clock.Window, 0, len(wd.open))
	for w := range wd.open {
		if w < limit {
			wins = append(wins, w)
		}
	}
	if len(wins) == 0 {
		return nil
	}
	sort.Slice(wins, func(i, j int) bool { return wins[i] < wins[j] })
	var out []WindowObs
	for _, w := range wins {
		victims := wd.open[w]
		vs := make([]netx.Addr, 0, len(victims))
		for v := range victims {
			vs = append(vs, v)
		}
		sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
		for _, v := range vs {
			out = append(out, victims[v].obs(w, v))
		}
		delete(wd.open, w)
	}
	return out
}

// PacketAggregator builds WindowObs from individual backscatter packets
// captured by the telescope — the packet-level front-end of the inference,
// used for case studies and tests. The flow-level longitudinal generator
// (internal/scenario) synthesizes WindowObs directly.
//
// Packet-to-attack attribution follows the backscatter method: the *source*
// of a captured packet is the inferred victim; the backscatter type implies
// the attacked protocol; the backscatter source port (or the quoted port in
// an ICMP error) implies the attacked port.
//
// It is the zero-lateness batch face of Windower: a window closes as soon
// as a later window is seen, and a late packet (one for an already-closed
// window) is dropped and counted in LateDrops rather than regressing the
// live window — the historical behaviour of flushing on *any* window
// change emitted duplicate out-of-order observations for the flushed
// window, which double-counted attacks downstream.
type PacketAggregator struct {
	win  *Windower
	done []WindowObs
}

// NewPacketAggregator returns an aggregator for the given telescope.
func NewPacketAggregator(t *telescope.Telescope) *PacketAggregator {
	return &PacketAggregator{win: NewWindower(t, 0)}
}

// Add folds one captured packet and reports whether it was accepted.
// Packets are expected in non-decreasing window order (packet order within
// a window is free); a packet for a window older than the newest one seen
// is dropped and counted in LateDrops.
func (pa *PacketAggregator) Add(ts time.Time, p packet.Packet) bool {
	ok := pa.win.Add(ts, p)
	if obs := pa.win.CloseReady(); len(obs) > 0 {
		pa.done = append(pa.done, obs...)
	}
	return ok
}

// LateDrops returns how many packets were dropped for arriving after
// their window was flushed.
func (pa *PacketAggregator) LateDrops() int64 { return pa.win.LateDrops() }

// Finish flushes the trailing window and returns all observations in
// strictly non-decreasing window order (victims sorted within a window).
func (pa *PacketAggregator) Finish() []WindowObs {
	out := append(pa.done, pa.win.CloseAll()...)
	pa.done = nil
	return out
}
