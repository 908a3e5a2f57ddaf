package rsdos

import (
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"

	"dnsddos/internal/clock"
	"dnsddos/internal/netx"
	"dnsddos/internal/packet"
)

// reference_test.go keeps the curation as it was before the port lists
// and the window fold: a map of ports and a map of protocols per
// candidate, the qualifying observations copied and sorted by (Window,
// Victim) with sort.SliceStable. Infer must reproduce its feed exactly —
// including which of two observations of one (Window, Victim) goes first,
// since that one sets a new attack's FirstPort: the one earlier in the
// feed, which the stable sort keeps first.

// portN is the count a port list holds for port (0 when absent).
func portN(ports []PortCount, port uint16) int64 {
	for _, pc := range ports {
		if pc.Port == port {
			return pc.N
		}
	}
	return 0
}

type refCandidate struct {
	atk        Attack
	ports      map[uint16]int64
	protoCount map[packet.Protocol]int64
}

func refTopPort(ports map[uint16]int64) uint16 {
	if len(ports) == 0 {
		return 0
	}
	// deterministic: the lowest port with the highest count
	var best uint16
	var bestN int64 = -1
	for p, n := range ports {
		if n > bestN || (n == bestN && p < best) {
			best, bestN = p, n
		}
	}
	return best
}

func refPortMap(ports []PortCount) map[uint16]int64 {
	m := make(map[uint16]int64, len(ports))
	for _, pc := range ports {
		m[pc.Port] += pc.N
	}
	return m
}

func inferReference(cfg Config, obs []WindowObs) []Attack {
	qualifies := func(o *WindowObs) bool {
		return o.Packets >= cfg.MinPackets && o.Slash16 >= cfg.MinSlash16
	}
	qual := make([]WindowObs, 0, len(obs))
	for i := range obs {
		if qualifies(&obs[i]) {
			qual = append(qual, obs[i])
		}
	}
	sort.SliceStable(qual, func(i, j int) bool {
		if qual[i].Window != qual[j].Window {
			return qual[i].Window < qual[j].Window
		}
		return qual[i].Victim < qual[j].Victim
	})
	open := make(map[netx.Addr]*refCandidate)
	var attacks []Attack
	finalize := func(c *refCandidate) {
		if c.atk.TotalPackets < cfg.MinTotalPackets {
			return
		}
		a := &c.atk
		a.UniquePorts = int32(len(c.ports))
		var bestProto packet.Protocol
		var bestN int64 = -1
		for p, n := range c.protoCount {
			if n > bestN || (n == bestN && p < bestProto) {
				bestProto, bestN = p, n
			}
		}
		a.Proto = bestProto
		if a.FirstPort == 0 && int32(len(c.ports)) > 0 {
			a.FirstPort = refTopPort(c.ports)
		}
		attacks = append(attacks, *a)
	}
	for _, o := range qual {
		cur := open[o.Victim]
		if cur != nil && int64(o.Window-cur.atk.EndWindow) > int64(cfg.MaxGapWindows)+1 {
			finalize(cur)
			delete(open, o.Victim)
			cur = nil
		}
		if cur == nil {
			cur = &refCandidate{
				atk: Attack{
					Victim:      o.Victim,
					StartWindow: o.Window,
					EndWindow:   o.Window,
					FirstPort:   refTopPort(refPortMap(o.Ports)),
				},
				ports:      make(map[uint16]int64),
				protoCount: make(map[packet.Protocol]int64),
			}
			open[o.Victim] = cur
		}
		cur.atk.EndWindow = o.Window
		cur.atk.TotalPackets += o.Packets
		if o.PeakPPM > cur.atk.PeakPPM {
			cur.atk.PeakPPM = o.PeakPPM
		}
		if s := int32(o.Slash16); s > cur.atk.MaxSlash16 {
			cur.atk.MaxSlash16 = s
		}
		if o.UniqueDsts > cur.atk.UniqueDsts {
			cur.atk.UniqueDsts = o.UniqueDsts
		}
		cur.protoCount[o.Proto] += o.Packets
		for _, pc := range o.Ports {
			cur.ports[pc.Port] += pc.N
		}
	}
	for _, c := range open {
		finalize(c)
	}
	sort.Slice(attacks, func(i, j int) bool {
		if attacks[i].StartWindow != attacks[j].StartWindow {
			return attacks[i].StartWindow < attacks[j].StartWindow
		}
		return attacks[i].Victim < attacks[j].Victim
	})
	for i := range attacks {
		attacks[i].ID = int32(i + 1)
	}
	return attacks
}

// tieFeed draws n observations dense in everything the two curations
// could disagree on: a small victim pool and window range (many
// observations share a (Window, Victim)), port lists of 0–5 ports out of
// eight with counts that tie, four protocols (one outside the models'
// three), zero-packet windows.
func tieFeed(seed uint64, n int) []WindowObs {
	rng := rand.New(rand.NewPCG(seed, 0x71e))
	portPool := []uint16{22, 53, 80, 123, 443, 3389, 8080, 27015}
	protoPool := []packet.Protocol{packet.ProtoICMP, packet.ProtoTCP, packet.ProtoUDP, 47}
	out := make([]WindowObs, 0, n)
	for i := 0; i < n; i++ {
		o := WindowObs{
			Window:     clock.Window(rng.IntN(400)),
			Victim:     netx.Addr(0x78000000 + uint32(rng.IntN(40))),
			Proto:      protoPool[rng.IntN(len(protoPool))],
			Packets:    int64(rng.IntN(8)) * 25,
			Slash16:    rng.IntN(40),
			UniqueDsts: int64(rng.IntN(500)),
		}
		o.PeakPPM = float64(o.Packets) / float64(1+rng.IntN(5))
		for k := rng.IntN(6); k > 0; k-- {
			o.Ports = AddPort(o.Ports, portPool[rng.IntN(len(portPool))], int64(rng.IntN(3))*10)
		}
		out = append(out, o)
	}
	return out
}

func TestInferMatchesReference(t *testing.T) {
	loose := Config{MaxGapWindows: 2} // every window qualifies, the empty ones too
	victim := netx.MustParseAddr("192.0.2.1")
	at := func(w clock.Window, packets int64, proto packet.Protocol, ports ...PortCount) WindowObs {
		return WindowObs{Window: w, Victim: victim, Proto: proto, Packets: packets,
			PeakPPM: float64(packets) / 5, Slash16: 50, UniqueDsts: packets, Ports: ports}
	}
	type inferCase struct {
		name string
		cfg  Config
		obs  []WindowObs
	}
	cases := []inferCase{
		{"two components on one victim and window", DefaultConfig(), []WindowObs{
			at(10, 100, packet.ProtoTCP, PortCount{80, 60}, PortCount{443, 40}),
			at(10, 100, packet.ProtoUDP, PortCount{53, 100}),
			at(11, 100, packet.ProtoTCP, PortCount{80, 100}),
		}},
		{"the same two, the other way round", DefaultConfig(), []WindowObs{
			at(10, 100, packet.ProtoUDP, PortCount{53, 100}),
			at(10, 100, packet.ProtoTCP, PortCount{80, 60}, PortCount{443, 40}),
		}},
		{"port counts tie", DefaultConfig(), []WindowObs{
			at(10, 100, packet.ProtoTCP, PortCount{80, 50}, PortCount{443, 50}),
		}},
		{"protocol counts tie", DefaultConfig(), []WindowObs{
			at(10, 100, packet.ProtoUDP, PortCount{53, 100}),
			at(11, 100, packet.ProtoTCP, PortCount{53, 100}),
			at(12, 200, 47),
			at(13, 200, packet.ProtoICMP),
		}},
		{"ICMP first, ports later", DefaultConfig(), []WindowObs{
			at(10, 100, packet.ProtoICMP),
			at(11, 100, packet.ProtoTCP, PortCount{80, 30}, PortCount{8080, 70}),
		}},
		{"zero-packet window under MinPackets 0", loose, []WindowObs{
			at(10, 0, packet.ProtoUDP),
			at(11, 0, packet.ProtoTCP, PortCount{80, 0}),
			at(20, 0, packet.ProtoUDP),
		}},
	}
	for seed := uint64(1); seed <= 6; seed++ {
		feed := tieFeed(seed, 3000)
		cases = append(cases,
			inferCase{"random feed, default thresholds", DefaultConfig(), feed},
			inferCase{"random feed, no thresholds", loose, feed})
	}
	for _, tc := range cases {
		got, want := Infer(tc.cfg, tc.obs), inferReference(tc.cfg, tc.obs)
		if len(want) == 0 {
			t.Errorf("%s: the reference inferred no attack", tc.name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: feed differs from the reference (%d vs %d attacks)", tc.name, len(got), len(want))
			for i := range min(len(got), len(want)) {
				if got[i] != want[i] {
					t.Logf("first difference at %d:\n got %+v\nwant %+v", i, got[i], want[i])
					break
				}
			}
		}
	}
}
