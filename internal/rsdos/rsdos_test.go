package rsdos

import (
	"reflect"
	"testing"
	"time"
	"unsafe"

	"dnsddos/internal/clock"
	"dnsddos/internal/netx"
	"dnsddos/internal/packet"
)

func obs(victim string, w clock.Window, packets int64, slash16 int, port uint16) WindowObs {
	o := WindowObs{
		Window:  w,
		Victim:  netx.MustParseAddr(victim),
		Packets: packets,
		PeakPPM: float64(packets) / 5,
		Slash16: slash16,
		Proto:   packet.ProtoTCP,
	}
	if port != 0 {
		o.Ports = []PortCount{{port, packets}}
	}
	o.UniqueDsts = packets
	return o
}

func TestInferSingleAttack(t *testing.T) {
	cfg := DefaultConfig()
	attacks := Infer(cfg, []WindowObs{
		obs("192.0.2.1", 10, 100, 50, 53),
		obs("192.0.2.1", 11, 150, 60, 53),
		obs("192.0.2.1", 12, 120, 55, 53),
	})
	if len(attacks) != 1 {
		t.Fatalf("inferred %d attacks, want 1", len(attacks))
	}
	a := attacks[0]
	if a.StartWindow != 10 || a.EndWindow != 12 {
		t.Errorf("windows = %d..%d", a.StartWindow, a.EndWindow)
	}
	if a.TotalPackets != 370 {
		t.Errorf("total packets = %d", a.TotalPackets)
	}
	if a.PeakPPM != 30 {
		t.Errorf("peak ppm = %v", a.PeakPPM)
	}
	if a.MaxSlash16 != 60 {
		t.Errorf("max /16 = %d", a.MaxSlash16)
	}
	if a.FirstPort != 53 || a.UniquePorts != 1 {
		t.Errorf("ports = %d (%d unique)", a.FirstPort, a.UniquePorts)
	}
	if a.Duration() != 15*time.Minute {
		t.Errorf("duration = %v", a.Duration())
	}
	if a.Proto != packet.ProtoTCP {
		t.Errorf("proto = %v", a.Proto)
	}
}

func TestInferThresholds(t *testing.T) {
	cfg := DefaultConfig()
	// too few packets
	if got := Infer(cfg, []WindowObs{obs("192.0.2.1", 0, cfg.MinPackets-1, 50, 53)}); len(got) != 0 {
		t.Errorf("below MinPackets inferred %d attacks", len(got))
	}
	// too little spread: scanners, not spoofed floods
	if got := Infer(cfg, []WindowObs{obs("192.0.2.1", 0, 100, cfg.MinSlash16-1, 53)}); len(got) != 0 {
		t.Errorf("below MinSlash16 inferred %d attacks", len(got))
	}
	// exactly at thresholds qualifies
	if got := Infer(cfg, []WindowObs{obs("192.0.2.1", 0, cfg.MinPackets, cfg.MinSlash16, 53)}); len(got) != 1 {
		t.Errorf("at thresholds inferred %d attacks", len(got))
	}
}

func TestInferGapMerging(t *testing.T) {
	cfg := DefaultConfig() // MaxGapWindows = 2
	// windows 0 and 3: gap of 2 empty windows → one attack
	one := Infer(cfg, []WindowObs{
		obs("192.0.2.1", 0, 100, 50, 53),
		obs("192.0.2.1", 3, 100, 50, 53),
	})
	if len(one) != 1 || one[0].EndWindow != 3 {
		t.Errorf("gap of 2 should merge: %+v", one)
	}
	// windows 0 and 4: gap of 3 → two attacks
	two := Infer(cfg, []WindowObs{
		obs("192.0.2.1", 0, 100, 50, 53),
		obs("192.0.2.1", 4, 100, 50, 53),
	})
	if len(two) != 2 {
		t.Errorf("gap of 3 should split: %d attacks", len(two))
	}
}

func TestInferSeparatesVictims(t *testing.T) {
	attacks := Infer(DefaultConfig(), []WindowObs{
		obs("192.0.2.1", 0, 100, 50, 53),
		obs("192.0.2.2", 0, 100, 50, 80),
	})
	if len(attacks) != 2 {
		t.Fatalf("attacks = %d", len(attacks))
	}
	// sorted by window then victim; IDs assigned sequentially
	if attacks[0].ID != 1 || attacks[1].ID != 2 {
		t.Errorf("IDs = %d,%d", attacks[0].ID, attacks[1].ID)
	}
	if attacks[0].Victim >= attacks[1].Victim {
		t.Error("not sorted by victim")
	}
}

func TestInferMultiPort(t *testing.T) {
	o1 := obs("192.0.2.1", 0, 100, 50, 0)
	o1.Ports = []PortCount{{80, 60}, {443, 40}}
	o2 := obs("192.0.2.1", 1, 100, 50, 0)
	o2.Ports = []PortCount{{53, 100}}
	attacks := Infer(DefaultConfig(), []WindowObs{o1, o2})
	if len(attacks) != 1 {
		t.Fatalf("attacks = %d", len(attacks))
	}
	if attacks[0].UniquePorts != 3 {
		t.Errorf("unique ports = %d, want 3", attacks[0].UniquePorts)
	}
	// first port: dominant port of the first window
	if attacks[0].FirstPort != 80 {
		t.Errorf("first port = %d, want 80", attacks[0].FirstPort)
	}
}

func TestInferDominantProto(t *testing.T) {
	o1 := obs("192.0.2.1", 0, 30, 50, 53)
	o1.Proto = packet.ProtoUDP
	o2 := obs("192.0.2.1", 1, 300, 50, 53)
	o2.Proto = packet.ProtoTCP
	attacks := Infer(DefaultConfig(), []WindowObs{o1, o2})
	if len(attacks) != 1 || attacks[0].Proto != packet.ProtoTCP {
		t.Errorf("dominant proto = %v", attacks[0].Proto)
	}
}

func TestInferUnorderedInput(t *testing.T) {
	attacks := Infer(DefaultConfig(), []WindowObs{
		obs("192.0.2.1", 12, 100, 50, 53),
		obs("192.0.2.1", 10, 100, 50, 53),
		obs("192.0.2.1", 11, 100, 50, 53),
	})
	if len(attacks) != 1 || attacks[0].StartWindow != 10 || attacks[0].EndWindow != 12 {
		t.Errorf("unordered input mishandled: %+v", attacks)
	}
}

func TestInferredExtrapolations(t *testing.T) {
	a := Attack{PeakPPM: 21800, UniqueDsts: 17000}
	// Table 2 footnote: 21.8 kppm × 341 / 60 ≈ 124 kpps
	pps := a.InferredVictimPPS(341)
	if pps < 123000 || pps > 125000 {
		t.Errorf("inferred pps = %v", pps)
	}
	ips := a.InferredAttackerIPs(341)
	if ips != 17000*341 {
		t.Errorf("inferred attacker IPs = %d", ips)
	}
	gbps := a.InferredGbps(341, 1400)
	if gbps < 1.35 || gbps > 1.45 {
		t.Errorf("inferred Gbps = %v", gbps)
	}
}

// TestAttackLayout holds an attack to 64 bytes, as attacksim's
// TestSpecLayout holds a component to 72: a session at the paper's attack
// count holds millions of them, in the fold's finished chunks, in
// Finish's sorted array and in every copy downstream. It took 80 with int
// IDs and counts.
func TestAttackLayout(t *testing.T) {
	if size := unsafe.Sizeof(Attack{}); size > 64 {
		t.Errorf("Attack takes %d bytes, want ≤ 64", size)
	}
}

func TestAttackOverlaps(t *testing.T) {
	a := Attack{StartWindow: 10, EndWindow: 12}
	if !a.Overlaps(a.Start(), a.End()) {
		t.Error("attack overlaps its own interval")
	}
	if a.Overlaps(a.End(), a.End().Add(time.Hour)) {
		t.Error("exclusive end should not overlap")
	}
	if !a.Overlaps(a.Start().Add(-time.Hour), a.Start().Add(time.Nanosecond)) {
		t.Error("touching the start should overlap")
	}
}

// TestAdvanceBatchesAreNotFeedOrder pins what a Finalize batch is: sorted
// within itself, not a run of the feed's order. Victim 1 is attacked in
// windows 10–100 and victim 2 in 50–60; closed window by window, the
// fold finalizes victim 2's attack first (once window 63 closes) and
// victim 1's, which starts earlier and so is first in the feed, last.
// A Fold closed window by window must still number the feed as Infer
// does.
func TestAdvanceBatchesAreNotFeedOrder(t *testing.T) {
	var feed []WindowObs
	for w := clock.Window(10); w <= 100; w++ {
		feed = append(feed, obs("192.0.2.1", w, 100, 50, 80))
		if w >= 50 && w <= 60 {
			feed = append(feed, obs("192.0.2.2", w, 100, 50, 53))
		}
	}
	cfg := DefaultConfig()
	// fold closes the window after each one taken, handing each close's
	// attacks to batch; it returns the fold
	fold := func(batch func(w clock.Window, b []Attack)) *Fold {
		f := NewFold(cfg)
		for w, i := clock.Window(10), 0; w <= 110; w++ {
			for ; i < len(feed) && feed[i].Window == w; i++ {
				f.Take(&feed[i])
			}
			batch(w, f.Finalize(w+1))
		}
		return f
	}
	var batches [][]Attack
	f := fold(func(w clock.Window, b []Attack) {
		if len(b) > 0 {
			batches = append(batches, b)
			if len(b) != 1 {
				t.Fatalf("window %d: a batch of %d attacks, want 1", w, len(b))
			}
		}
	})
	if len(batches) != 2 {
		t.Fatalf("%d batches, want 2", len(batches))
	}
	if v := batches[0][0].Victim; v != netx.MustParseAddr("192.0.2.2") || batches[0][0].EndWindow != 60 {
		t.Errorf("first batch is %v's attack ending in window %d, want 192.0.2.2's ending in 60", v, batches[0][0].EndWindow)
	}
	if v := batches[1][0].Victim; v != netx.MustParseAddr("192.0.2.1") || batches[1][0].StartWindow != 10 {
		t.Errorf("second batch is %v's attack from window %d, want 192.0.2.1's from 10", v, batches[1][0].StartWindow)
	}
	if rest := f.Finish(); len(rest) != 0 {
		t.Errorf("Finish after every attack was finalized returned %d attacks", len(rest))
	}

	f = NewFold(cfg)
	for w, i := clock.Window(10), 0; i < len(feed); w++ {
		for ; i < len(feed) && feed[i].Window == w; i++ {
			f.Take(&feed[i])
		}
		f.Close(w + 1)
	}
	got, want := f.Finish(), Infer(cfg, feed)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fold closed window by window:\n%+v\nInfer:\n%+v", got, want)
	}
	if got[0].ID != 1 || got[0].Victim != netx.MustParseAddr("192.0.2.1") || got[1].ID != 2 {
		t.Errorf("feed numbered %+v, want victim 1's attack first", got)
	}
}
