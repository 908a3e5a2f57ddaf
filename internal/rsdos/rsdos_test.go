package rsdos

import (
	"bytes"
	"testing"
	"time"

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

func TestFeedRoundTrip(t *testing.T) {
	attacks := Infer(DefaultConfig(), []WindowObs{
		obs("192.0.2.1", 10, 100, 50, 53),
		obs("198.51.100.7", 20, 400, 80, 80),
	})
	var buf bytes.Buffer
	if err := WriteFeed(&buf, attacks); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFeed(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(attacks) {
		t.Fatalf("round trip %d != %d", len(got), len(attacks))
	}
	for i := range got {
		g, w := got[i], attacks[i]
		if g.ID != w.ID || g.Victim != w.Victim || g.StartWindow != w.StartWindow ||
			g.EndWindow != w.EndWindow || g.Proto != w.Proto || g.FirstPort != w.FirstPort ||
			g.UniquePorts != w.UniquePorts || g.TotalPackets != w.TotalPackets ||
			g.PeakPPM != w.PeakPPM || g.MaxSlash16 != w.MaxSlash16 || g.UniqueDsts != w.UniqueDsts {
			t.Errorf("attack %d mismatch:\n got %+v\nwant %+v", i, g, w)
		}
	}
}

func TestReadFeedRejectsGarbage(t *testing.T) {
	if _, err := ReadFeed(bytes.NewReader(nil)); err == nil {
		t.Error("empty feed should error")
	}
	bad := "id,victim,start,end,proto,first_port,unique_ports,total_packets,peak_ppm,max_slash16,unique_dsts\nx,y,z,w,v,u,t,s,r,q,p\n"
	if _, err := ReadFeed(bytes.NewReader([]byte(bad))); err == nil {
		t.Error("garbage row should error")
	}
}
