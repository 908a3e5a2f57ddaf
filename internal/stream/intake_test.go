package stream

import (
	"cmp"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"dnsddos/internal/clock"
	"dnsddos/internal/core"
	"dnsddos/internal/dnsdb"
	"dnsddos/internal/netx"
	"dnsddos/internal/packet"
	"dnsddos/internal/rsdos"
)

// intake_test.go holds the stream's intake to its watermark semantics on
// small generated feeds, with no study behind it: a window closes once
// the source's watermark passes it by more than the lateness allowance,
// an observation delivered for a closed window is dropped and counted —
// never folded in, never a panic — and whatever is accepted is curated
// exactly as Infer curates it.

// intakeStream is a stream over an empty world, whose join finds no
// event: the tests read its attacks.
func intakeStream(t *testing.T, lateness int) (*Pipeline, *memSink) {
	t.Helper()
	sink := &memSink{}
	p, err := New(core.NewPipeline(dnsdb.New()), sink, WithLateness(lateness))
	if err != nil {
		t.Fatal(err)
	}
	return p, sink
}

// intakeObs draws n observations over the given windows and three
// victims, at most one per (window, victim) — so no two are ordered by
// arrival alone — in window order, most of them attack evidence.
func intakeObs(rng *rand.Rand, n, windows int) []rsdos.WindowObs {
	seen := map[[2]int]bool{}
	var out []rsdos.WindowObs
	for range n {
		w, v := rng.IntN(windows), rng.IntN(3)
		if seen[[2]int{w, v}] {
			continue
		}
		seen[[2]int{w, v}] = true
		o := rsdos.WindowObs{
			Window: clock.Window(w), Victim: netx.Addr(0xC0000200 + uint32(v)), Proto: packet.ProtoTCP,
			Packets: int64(rng.IntN(120)), Slash16: 1 + rng.IntN(40),
		}
		o.PeakPPM, o.UniqueDsts = float64(o.Packets)/5, o.Packets
		o.Ports = []rsdos.PortCount{{Port: uint16(53 + rng.IntN(3)), N: o.Packets}}
		out = append(out, o)
	}
	slices.SortStableFunc(out, func(a, b rsdos.WindowObs) int { return cmp.Compare(a.Window, b.Window) })
	return out
}

// runIntake delivers obs in order, announcing before each the highest
// window delivered so far as the watermark — the source knows no better —
// and returns the stream's canonical attacks, the accepted observations
// and the drops, checking that batches stay in frontier order.
func runIntake(t *testing.T, lateness int, obs []rsdos.WindowObs) (attacks []rsdos.Attack, accepted []rsdos.WindowObs, drops int64) {
	t.Helper()
	p, sink := intakeStream(t, lateness)
	for i := range obs {
		if i == 0 || obs[i].Window > obs[i-1].Window {
			if err := p.Advance(obs[i].Window); err != nil {
				t.Fatal(err)
			}
		}
		if p.Offer(&obs[i]) {
			accepted = append(accepted, obs[i])
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(sink.batches); i++ {
		if sink.batches[i].ClosedThrough <= sink.batches[i-1].ClosedThrough {
			t.Fatalf("batch %d frontier %v not past %v", i, sink.batches[i].ClosedThrough, sink.batches[i-1].ClosedThrough)
		}
	}
	if rejected := int64(len(obs) - len(accepted)); rejected != p.LateDrops() {
		t.Fatalf("%d offers rejected, %d late drops", rejected, p.LateDrops())
	}
	attacks, _ = Canonicalize(sink.flatten())
	return attacks, accepted, p.LateDrops()
}

// TestIntakeLateDrop: an observation for a window the watermark has
// closed is dropped and counted, the closed window's attack is not
// re-opened or emitted twice, and a qualifying late observation does not
// panic the fold behind the stream.
func TestIntakeLateDrop(t *testing.T) {
	p, sink := intakeStream(t, 0)
	victim := netx.MustParseAddr("192.0.2.1")
	o := func(w clock.Window) *rsdos.WindowObs {
		return &rsdos.WindowObs{Window: w, Victim: victim, Proto: packet.ProtoTCP, Packets: 100, Slash16: 50, UniqueDsts: 100,
			Ports: []rsdos.PortCount{{Port: 53, N: 100}}}
	}
	if !p.Offer(o(0)) {
		t.Fatal("in-order observation rejected")
	}
	// the watermark at window 4 closes windows 0–3, which finalizes the
	// attack of window 0 (no window after 3 can extend it)
	if err := p.Advance(4); err != nil {
		t.Fatal(err)
	}
	if p.Offer(o(2)) {
		t.Error("late observation for a closed window was accepted")
	}
	if !p.Offer(o(4)) {
		t.Error("observation at the watermark rejected")
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if p.Offer(o(9)) {
		t.Error("an observation after Close was accepted")
	}
	if d := p.LateDrops(); d != 2 {
		t.Errorf("LateDrops = %d, want 2", d)
	}
	attacks, _ := sink.flatten()
	if len(attacks) != 2 || attacks[0].EndWindow != 0 || attacks[1].StartWindow != 4 || attacks[1].EndWindow != 4 {
		t.Fatalf("attacks %+v, want the window-0 attack once and the window-4 one, the late observation in neither", attacks)
	}
	if err := p.Advance(10); err == nil {
		t.Error("Advance after Close succeeded")
	}
}

// TestIntakeWithinWindowOrderProperty: arrival order across victims
// within a window is free — shuffling a window's observations (window
// order kept) never changes the stream's attacks and never drops one.
func TestIntakeWithinWindowOrderProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0x51))
		obs := intakeObs(rng, 40+rng.IntN(120), 12)
		want, _, drops := runIntake(t, 0, obs)
		if drops != 0 || !reflect.DeepEqual(want, rsdos.Infer(rsdos.DefaultConfig(), obs)) {
			return false
		}
		shuf := slices.Clone(obs)
		for lo := 0; lo < len(shuf); {
			hi := lo
			for hi < len(shuf) && shuf[hi].Window == shuf[lo].Window {
				hi++
			}
			rng.Shuffle(hi-lo, func(i, j int) { shuf[lo+i], shuf[lo+j] = shuf[lo+j], shuf[lo+i] })
			lo = hi
		}
		got, _, drops := runIntake(t, 0, shuf)
		return drops == 0 && reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestIntakeLateArrivalProperty: under arbitrary (fully shuffled)
// delivery, the stream's attacks are Infer's over exactly the
// observations it accepted, and everything it did not accept is counted
// — late arrival can shrink the input but never reorder, duplicate or
// corrupt the output.
func TestIntakeLateArrivalProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0x62))
		obs := intakeObs(rng, 40+rng.IntN(120), 15)
		rng.Shuffle(len(obs), func(i, j int) { obs[i], obs[j] = obs[j], obs[i] })
		lateness := rng.IntN(3)
		// the shuffled source announces its running maximum
		p, sink := intakeStream(t, lateness)
		var accepted []rsdos.WindowObs
		top := clock.Window(-1)
		for i := range obs {
			if obs[i].Window > top {
				top = obs[i].Window
				if err := p.Advance(top); err != nil {
					t.Fatal(err)
				}
			}
			if p.Offer(&obs[i]) {
				accepted = append(accepted, obs[i])
			}
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		if int(p.LateDrops()) != len(obs)-len(accepted) {
			return false
		}
		for i := 1; i < len(sink.batches); i++ {
			if sink.batches[i].ClosedThrough <= sink.batches[i-1].ClosedThrough {
				return false // out-of-order emission
			}
		}
		got, _ := Canonicalize(sink.flatten())
		return reflect.DeepEqual(got, rsdos.Infer(rsdos.DefaultConfig(), accepted))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestIntakeLatenessAbsorbsDelay: with a lateness allowance of two, a
// delivery that holds each observation back by less than two windows —
// in order of window plus a delay drawn below two windows, the watermark
// the highest window delivered — is accepted whole and curated exactly
// as the in-order delivery is. An observation delivered after another
// whose window is at most its own plus one is never more than two
// windows behind the watermark, which the allowance absorbs.
func TestIntakeLatenessAbsorbsDelay(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0x73))
		obs := intakeObs(rng, 40+rng.IntN(120), 18)
		want, _, _ := runIntake(t, 0, obs)
		type arrival struct {
			o  rsdos.WindowObs
			at float64 // in windows
		}
		arr := make([]arrival, len(obs))
		for i, o := range obs {
			arr[i] = arrival{o, float64(o.Window) + 2*rng.Float64()}
		}
		slices.SortStableFunc(arr, func(a, b arrival) int { return cmp.Compare(a.at, b.at) })
		jit := make([]rsdos.WindowObs, len(arr))
		for i, a := range arr {
			jit[i] = a.o
		}
		p, sink := intakeStream(t, 2)
		top := clock.Window(-1)
		for i := range jit {
			if jit[i].Window > top {
				top = jit[i].Window
				if err := p.Advance(top); err != nil {
					t.Fatal(err)
				}
			}
			if !p.Offer(&jit[i]) {
				return false // lateness 2 must absorb a delay below 2 windows
			}
		}
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
		got, _ := Canonicalize(sink.flatten())
		return p.LateDrops() == 0 && reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
