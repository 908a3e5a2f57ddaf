package rsdos

import (
	"math"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"dnsddos/internal/attacksim"
	"dnsddos/internal/backscatter"
	"dnsddos/internal/clock"
	"dnsddos/internal/netx"
	"dnsddos/internal/packet"
	"dnsddos/internal/telescope"
)

func bsPacket(victim, dst string, srcPort uint16) packet.Packet {
	return packet.Packet{
		IP: packet.IPv4Header{Protocol: packet.ProtoTCP,
			Src: netx.MustParseAddr(victim), Dst: netx.MustParseAddr(dst)},
		TCP: &packet.TCPHeader{SrcPort: srcPort, DstPort: 4000, Flags: packet.FlagSYN | packet.FlagACK},
	}
}

func TestPacketAggregatorBasics(t *testing.T) {
	tel := telescope.NewUCSD()
	pa := NewPacketAggregator(tel)
	base := clock.StudyStart
	// two victims in one window, one victim spanning two windows
	pa.Add(base.Add(10*time.Second), bsPacket("192.0.2.1", "44.0.0.1", 53))
	pa.Add(base.Add(20*time.Second), bsPacket("192.0.2.1", "44.1.0.1", 53))
	pa.Add(base.Add(30*time.Second), bsPacket("198.51.100.1", "44.2.0.1", 80))
	pa.Add(base.Add(6*time.Minute), bsPacket("192.0.2.1", "44.3.0.1", 53))
	obs := pa.Finish()
	if len(obs) != 3 {
		t.Fatalf("observations = %d, want 3", len(obs))
	}
	// window order, victim order within window
	if obs[0].Window != 0 || obs[1].Window != 0 || obs[2].Window != 1 {
		t.Errorf("window order: %v %v %v", obs[0].Window, obs[1].Window, obs[2].Window)
	}
	first := obs[0]
	if first.Victim != netx.MustParseAddr("192.0.2.1") || first.Packets != 2 {
		t.Errorf("first obs = %+v", first)
	}
	if first.Slash16 != 2 || first.UniqueDsts != 2 {
		t.Errorf("spread = %d, dsts = %d", first.Slash16, first.UniqueDsts)
	}
	if first.Proto != packet.ProtoTCP || portN(first.Ports, 53) != 2 {
		t.Errorf("attribution = %v %v", first.Proto, first.Ports)
	}
}

func TestPacketAggregatorPeakPPM(t *testing.T) {
	tel := telescope.NewUCSD()
	pa := NewPacketAggregator(tel)
	base := clock.StudyStart
	// 10 packets in minute 0, 30 in minute 3
	for i := 0; i < 10; i++ {
		pa.Add(base.Add(time.Duration(i)*time.Second), bsPacket("192.0.2.1", "44.0.0.1", 53))
	}
	for i := 0; i < 30; i++ {
		pa.Add(base.Add(3*time.Minute+time.Duration(i)*time.Second), bsPacket("192.0.2.1", "44.0.0.1", 53))
	}
	obs := pa.Finish()
	if len(obs) != 1 || obs[0].PeakPPM != 30 {
		t.Errorf("peak ppm = %+v", obs)
	}
}

func TestClassifyBackscatter(t *testing.T) {
	cases := []struct {
		p     packet.Packet
		proto packet.Protocol
		port  uint16
		has   bool
	}{
		{packet.Packet{TCP: &packet.TCPHeader{SrcPort: 53}}, packet.ProtoTCP, 53, true},
		{packet.Packet{UDP: &packet.UDPHeader{SrcPort: 123}}, packet.ProtoUDP, 123, true},
		{packet.Packet{ICMP: &packet.ICMPHeader{Type: packet.ICMPDestUnreachable, Rest: 9999}}, packet.ProtoUDP, 9999, true},
		{packet.Packet{ICMP: &packet.ICMPHeader{Type: packet.ICMPEchoReply}}, packet.ProtoICMP, 0, false},
	}
	for i, c := range cases {
		proto, port, has := classifyBackscatter(c.p)
		if proto != c.proto || port != c.port || has != c.has {
			t.Errorf("case %d: got %v/%d/%v", i, proto, port, has)
		}
	}
}

// TestPacketPathMatchesFlowPath is the cross-validation between the two
// fidelity levels: a packet-level replay (flood → backscatter → telescope →
// aggregator) must produce per-window statistics consistent with the
// analytic thinning used by the longitudinal synthesizer.
func TestPacketPathMatchesFlowPath(t *testing.T) {
	tel := telescope.NewUCSD()
	rng := rand.New(rand.NewPCG(42, 42))
	victimAddr := netx.MustParseAddr("192.0.2.53")
	spec := attacksim.Spec{
		Target: victimAddr,
		Vector: attacksim.VectorRandomSpoofed,
		Proto:  packet.ProtoTCP,
		Ports:  []uint16{53},
		Start:  clock.StudyStart.UnixNano(),
		End:    clock.StudyStart.Add(5 * time.Minute).UnixNano(),
		PPS:    2000,
	}
	victim := backscatter.DefaultNameserverVictim(false)
	pa := NewPacketAggregator(tel)
	spec.Flood(rng, 0, 1.0, func(ts time.Time, p packet.Packet) bool {
		if rt, resp, ok := victim.Respond(rng, ts, p); ok {
			if tel.Contains(resp.IP.Dst) {
				pa.Add(rt, resp)
			}
		}
		return true
	})
	obs := pa.Finish()
	if len(obs) == 0 {
		t.Fatal("no observations from packet path")
	}
	total := int64(0)
	for _, o := range obs {
		total += o.Packets
		if o.Victim != victimAddr {
			t.Errorf("victim attribution = %v", o.Victim)
		}
		if o.Proto != packet.ProtoTCP || portN(o.Ports, 53) != o.Packets {
			t.Errorf("port attribution: %+v", o)
		}
	}
	// expected telescope packets = pps × 300 s × fraction ≈ 1758
	want := spec.PPS * 300 * tel.Fraction()
	if math.Abs(float64(total)-want) > 6*math.Sqrt(want) {
		t.Errorf("telescope packets = %d, want ≈%.0f", total, want)
	}
	// the spread should be near the coupon-collector expectation
	spread := obs[0].Slash16
	wantSpread := tel.ExpectedSlash16Spread(total)
	if math.Abs(float64(spread)-float64(wantSpread)) > 8 {
		t.Errorf("spread = %d, formula %d", spread, wantSpread)
	}
	// the inference should call this one attack
	attacks := Infer(DefaultConfig(), obs)
	if len(attacks) != 1 {
		t.Fatalf("inferred %d attacks", len(attacks))
	}
	if attacks[0].Victim != victimAddr || attacks[0].FirstPort != 53 {
		t.Errorf("attack = %+v", attacks[0])
	}
}

// TestPacketAggregatorLateDrop is the regression test for the aggregator
// window-regression bug: a packet older than the newest window seen used
// to be treated as forward progress, regressing the live window and
// re-emitting a duplicate, out-of-order observation for the already
// flushed window. Now it must be dropped and counted, and Finish must
// stay strictly window-ordered with no duplicates.
func TestPacketAggregatorLateDrop(t *testing.T) {
	tel := telescope.NewUCSD()
	pa := NewPacketAggregator(tel)
	base := clock.StudyStart
	if !pa.Add(base.Add(10*time.Second), bsPacket("192.0.2.1", "44.0.0.1", 53)) {
		t.Fatal("in-order packet rejected")
	}
	// window 1 closes window 0
	if !pa.Add(base.Add(5*time.Minute+10*time.Second), bsPacket("192.0.2.1", "44.1.0.1", 53)) {
		t.Fatal("in-order packet rejected")
	}
	// late packet for the closed window 0: must be dropped, not regress
	if pa.Add(base.Add(20*time.Second), bsPacket("192.0.2.1", "44.2.0.1", 53)) {
		t.Error("late packet for a closed window was accepted")
	}
	if d := pa.LateDrops(); d != 1 {
		t.Errorf("LateDrops = %d, want 1", d)
	}
	obs := pa.Finish()
	if len(obs) != 2 {
		t.Fatalf("observations = %d, want 2 (duplicate emission for the closed window?)", len(obs))
	}
	for i := 1; i < len(obs); i++ {
		if obs[i].Window < obs[i-1].Window {
			t.Fatalf("Finish not window-ordered: %d after %d", obs[i].Window, obs[i-1].Window)
		}
	}
	if obs[0].Window != 0 || obs[0].Packets != 1 {
		t.Errorf("closed window mutated by the late packet: %+v", obs[0])
	}
	if obs[1].Window != 1 || obs[1].Packets != 1 {
		t.Errorf("live window corrupted: %+v", obs[1])
	}
}

// timedPacket pairs a backscatter packet with its capture time for the
// arrival-order property tests.
type timedPacket struct {
	ts time.Time
	p  packet.Packet
}

// randomTrace draws backscatter packets spread over a few windows with a
// handful of victims, in random (not time-sorted) generation order.
func randomTrace(rng *rand.Rand, n, windows int) []timedPacket {
	out := make([]timedPacket, 0, n)
	for i := 0; i < n; i++ {
		w := rng.IntN(windows)
		off := time.Duration(rng.IntN(300)) * time.Second
		v := netx.Addr(0xC0000200 + uint32(rng.IntN(3)))
		dst := netx.Addr(0x2C000000 + uint32(rng.IntN(1<<16)))
		out = append(out, timedPacket{
			ts: clock.StudyStart.Add(time.Duration(w)*clock.WindowDur + off),
			p:  bsPacket(v.String(), dst.String(), uint16(53+rng.IntN(3))),
		})
	}
	return out
}

func sortTrace(tr []timedPacket) {
	sort.SliceStable(tr, func(i, j int) bool { return tr[i].ts.Before(tr[j].ts) })
}

func runAggregator(tel *telescope.Telescope, tr []timedPacket) (obs []WindowObs, accepted []timedPacket, drops int64) {
	pa := NewPacketAggregator(tel)
	for _, tp := range tr {
		if pa.Add(tp.ts, tp.p) {
			accepted = append(accepted, tp)
		}
	}
	return pa.Finish(), accepted, pa.LateDrops()
}

// TestAggregatorIntraWindowShuffleProperty: arrival order *within* a
// window is free — shuffling packets inside their windows (window order
// preserved) never changes Finish output and never drops a packet.
func TestAggregatorIntraWindowShuffleProperty(t *testing.T) {
	tel := telescope.NewUCSD()
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0x51))
		tr := randomTrace(rng, 40+rng.IntN(120), 4)
		sortTrace(tr)
		want, _, wantDrops := runAggregator(tel, tr)
		if wantDrops != 0 {
			return false // sorted arrival must never drop
		}
		// shuffle within each window, keep window order
		shuf := make([]timedPacket, len(tr))
		copy(shuf, tr)
		for lo := 0; lo < len(shuf); {
			w := clock.WindowOf(shuf[lo].ts)
			hi := lo
			for hi < len(shuf) && clock.WindowOf(shuf[hi].ts) == w {
				hi++
			}
			rng.Shuffle(hi-lo, func(i, j int) { shuf[lo+i], shuf[lo+j] = shuf[lo+j], shuf[lo+i] })
			lo = hi
		}
		got, _, drops := runAggregator(tel, shuf)
		return drops == 0 && reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestAggregatorLateArrivalProperty: under arbitrary (fully shuffled)
// arrival, the aggregator's output equals a sorted replay of exactly the
// packets it accepted, and everything it did not accept is counted in
// LateDrops — late arrival can shrink the input but never reorder,
// duplicate, or corrupt the output.
func TestAggregatorLateArrivalProperty(t *testing.T) {
	tel := telescope.NewUCSD()
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0x62))
		tr := randomTrace(rng, 40+rng.IntN(120), 5)
		rng.Shuffle(len(tr), func(i, j int) { tr[i], tr[j] = tr[j], tr[i] })
		got, accepted, drops := runAggregator(tel, tr)
		if int(drops) != len(tr)-len(accepted) {
			return false
		}
		sortTrace(accepted)
		want, _, redrops := runAggregator(tel, accepted)
		if redrops != 0 {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].Window < got[i-1].Window {
				return false // out-of-order emission
			}
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestWindowerLatenessAbsorbsJitter: with a lateness allowance at least
// the arrival jitter, the streaming Windower accepts every packet of a
// jittered stream and produces byte-identical observations to a sorted
// zero-lateness replay.
func TestWindowerLatenessAbsorbsJitter(t *testing.T) {
	tel := telescope.NewUCSD()
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0x73))
		tr := randomTrace(rng, 40+rng.IntN(120), 6)
		sortTrace(tr)
		want, _, _ := runAggregator(tel, tr)
		// jittered arrival: order by ts + jitter with jitter < 2 windows.
		// Any packet arriving before packet p then has actual ts below
		// p.ts + 2 windows, so p is never more than 2 windows behind the
		// running max — exactly what a lateness allowance of 2 absorbs.
		type arrival struct {
			tp timedPacket
			at time.Time
		}
		arr := make([]arrival, len(tr))
		for i, tp := range tr {
			arr[i] = arrival{tp, tp.ts.Add(time.Duration(rng.Int64N(int64(2 * clock.WindowDur))))}
		}
		sort.SliceStable(arr, func(i, j int) bool { return arr[i].at.Before(arr[j].at) })
		jit := make([]timedPacket, len(arr))
		for i, a := range arr {
			jit[i] = a.tp
		}
		wd := NewWindower(tel, 2)
		var got []WindowObs
		for _, tp := range jit {
			if !wd.Add(tp.ts, tp.p) {
				return false // lateness 2 must absorb <2-window jitter
			}
			got = append(got, wd.CloseReady()...)
		}
		got = append(got, wd.CloseAll()...)
		return wd.LateDrops() == 0 && reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// PacketAggregator builds WindowObs from individual backscatter packets
// captured by the telescope, for the tests here. It is the zero-lateness
// batch face of Windower: a window closes as soon
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
