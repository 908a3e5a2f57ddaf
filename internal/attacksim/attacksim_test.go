package attacksim

import (
	"math/rand/v2"
	"testing"
	"time"

	"dnsddos/internal/clock"
	"dnsddos/internal/netx"
	"dnsddos/internal/packet"
)

func spec(target string, start time.Time, dur time.Duration, pps float64) Spec {
	return Spec{
		Target: netx.MustParseAddr(target),
		Vector: VectorRandomSpoofed,
		Proto:  packet.ProtoTCP,
		Ports:  []uint16{53},
		Start:  start,
		End:    start.Add(dur),
		PPS:    pps,
	}
}

func TestActiveInWindowFractions(t *testing.T) {
	// attack from minute 2 to minute 7: covers 3/5 of window 0, 2/5 of
	// window 1
	start := clock.StudyStart.Add(2 * time.Minute)
	s := spec("192.0.2.1", start, 5*time.Minute, 1000)
	f0, ok := s.ActiveIn(0)
	if !ok || f0 != 0.6 {
		t.Errorf("window 0 frac = %v,%v want 0.6", f0, ok)
	}
	f1, ok := s.ActiveIn(1)
	if !ok || f1 != 0.4 {
		t.Errorf("window 1 frac = %v,%v want 0.4", f1, ok)
	}
	if _, ok := s.ActiveIn(2); ok {
		t.Error("window 2 should be inactive")
	}
	if s.WindowLoad(0) != 600 {
		t.Errorf("WindowLoad(0) = %v", s.WindowLoad(0))
	}
}

func TestGbps(t *testing.T) {
	s := spec("192.0.2.1", clock.StudyStart, time.Hour, 124000)
	s.PacketBytes = 1400
	got := s.Gbps()
	if got < 1.38 || got > 1.40 {
		t.Errorf("Gbps = %v, want ≈1.39 (the Dec-2020 TransIP volume)", got)
	}
}

func TestScheduleActiveAt(t *testing.T) {
	base := clock.StudyStart
	sched := NewSchedule([]Spec{
		spec("192.0.2.1", base, 10*time.Minute, 100),
		spec("192.0.2.2", base.Add(20*time.Minute), 10*time.Minute, 100),
	})
	if got := len(sched.ActiveAt(clock.WindowOf(base))); got != 1 {
		t.Errorf("window 0 active = %d", got)
	}
	if got := len(sched.ActiveAt(clock.WindowOf(base.Add(25 * time.Minute)))); got != 1 {
		t.Errorf("window 5 active = %d", got)
	}
	if got := len(sched.ActiveAt(clock.WindowOf(base.Add(15 * time.Minute)))); got != 0 {
		t.Errorf("gap window active = %d", got)
	}
}

func TestScheduleIDsAssigned(t *testing.T) {
	sched := NewSchedule([]Spec{
		spec("192.0.2.2", clock.StudyStart.Add(time.Hour), time.Hour, 1),
		spec("192.0.2.1", clock.StudyStart, time.Hour, 1),
	})
	specs := sched.Specs()
	// sorted by start
	if !specs[0].Start.Before(specs[1].Start) {
		t.Error("specs not sorted by start")
	}
	for _, s := range specs {
		if s.ID == 0 || s.GroupID == 0 {
			t.Errorf("missing IDs: %+v", s)
		}
	}
}

func TestFloodPacketShape(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	s := spec("192.0.2.1", clock.StudyStart, 5*time.Minute, 100)
	var n int
	s.Flood(rng, 0, 1.0, func(ts time.Time, p packet.Packet) bool {
		n++
		if p.IP.Dst != s.Target {
			t.Fatalf("flood packet dst = %v", p.IP.Dst)
		}
		if p.TCP == nil || p.TCP.DstPort != 53 || !p.TCP.Flags.Has(packet.FlagSYN) {
			t.Fatalf("flood packet not a SYN to port 53: %+v", p.TCP)
		}
		w := clock.WindowOf(ts)
		if w != 0 {
			t.Fatalf("timestamp outside window: %v", ts)
		}
		return true
	})
	if n != 100*300 {
		t.Errorf("flood emitted %d packets, want %d", n, 100*300)
	}
}

func TestFloodDownsampling(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	s := spec("192.0.2.1", clock.StudyStart, 5*time.Minute, 1000)
	var n int
	s.Flood(rng, 0, 0.01, func(time.Time, packet.Packet) bool { n++; return true })
	if n != 3000 {
		t.Errorf("1%% sample of 300k packets = %d, want 3000", n)
	}
}

func TestFloodStopEarly(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	s := spec("192.0.2.1", clock.StudyStart, 5*time.Minute, 1000)
	var n int
	s.Flood(rng, 0, 1, func(time.Time, packet.Packet) bool { n++; return n < 10 })
	if n != 10 {
		t.Errorf("early stop after %d packets", n)
	}
}

func TestFloodOnlySpoofedVector(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	s := spec("192.0.2.1", clock.StudyStart, 5*time.Minute, 100)
	s.Vector = VectorReflection
	var n int
	s.Flood(rng, 0, 1, func(time.Time, packet.Packet) bool { n++; return true })
	if n != 0 {
		t.Errorf("reflection vector should not emit spoofed flood packets, got %d", n)
	}
}

func TestFloodSpoofedSourcesUniform(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	s := spec("192.0.2.1", clock.StudyStart, 5*time.Minute, 200)
	var lowHalf, n int
	s.Flood(rng, 0, 1, func(_ time.Time, p packet.Packet) bool {
		n++
		if p.IP.Src < 1<<31 {
			lowHalf++
		}
		return true
	})
	if n == 0 {
		t.Fatal("no packets")
	}
	frac := float64(lowHalf) / float64(n)
	if frac < 0.46 || frac > 0.54 {
		t.Errorf("spoofed sources not uniform: low-half fraction %.3f", frac)
	}
}

func TestFloodBoundedPool(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 6))
	s := spec("192.0.2.1", clock.StudyStart, 5*time.Minute, 200)
	s.SpoofedSources = 16
	seen := map[netx.Addr]bool{}
	s.Flood(rng, 0, 1, func(_ time.Time, p packet.Packet) bool {
		seen[p.IP.Src] = true
		return true
	})
	if len(seen) > 16 {
		t.Errorf("bounded pool produced %d distinct sources", len(seen))
	}
}

func TestVectorStrings(t *testing.T) {
	if VectorRandomSpoofed.String() != "random-spoofed" ||
		VectorReflection.String() != "reflection" ||
		VectorDirect.String() != "direct" {
		t.Error("vector strings")
	}
}
