package attacksim

import (
	"slices"
	"testing"
	"time"
	"unsafe"

	"dnsddos/internal/clock"
	"dnsddos/internal/netx"
	"dnsddos/internal/packet"
)

func spec(target string, start time.Time, dur time.Duration, pps float64) Spec {
	return Spec{
		Target: netx.MustParseAddr(target),
		Vector: VectorRandomSpoofed,
		Proto:  packet.ProtoTCP,
		Start:  start.UnixNano(),
		End:    start.Add(dur).UnixNano(),
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

// TestScheduleIDsAssigned: a schedule orders its components by (Start,
// order added), a zero GroupID takes the position plus one and a set one
// is kept, and every component keeps its own port list, an ICMP flood's
// empty.
func TestScheduleIDsAssigned(t *testing.T) {
	var b Builder
	late := spec("192.0.2.2", clock.StudyStart.Add(time.Hour), time.Hour, 1)
	b.Add(late, 80, 443, 8080)
	early := spec("192.0.2.1", clock.StudyStart, time.Hour, 1)
	early.GroupID = -7
	b.Add(early, 53)
	tie := spec("192.0.2.3", clock.StudyStart.Add(time.Hour), time.Hour, 1)
	b.Add(tie)
	sched := b.Schedule()
	specs := sched.Specs()
	want := []struct {
		target  string
		groupID int32
		ports   []uint16
	}{
		{"192.0.2.1", -7, []uint16{53}},
		{"192.0.2.2", 2, []uint16{80, 443, 8080}},
		{"192.0.2.3", 3, []uint16{}},
	}
	if len(specs) != len(want) {
		t.Fatalf("%d specs, want %d", len(specs), len(want))
	}
	for i, w := range want {
		s := &specs[i]
		if s.Target != netx.MustParseAddr(w.target) || s.GroupID != w.groupID || !slices.Equal(sched.Ports(s), w.ports) {
			t.Errorf("spec %d: target %v group %d ports %v, want %s %d %v", i, s.Target, s.GroupID, sched.Ports(s), w.target, w.groupID, w.ports)
		}
		if p := sched.Ports(s); cap(p) != len(p) {
			t.Errorf("spec %d: port list has room for %d, holds %d", i, cap(p), len(p))
		}
	}
}

func TestVectorStrings(t *testing.T) {
	if VectorRandomSpoofed.String() != "random-spoofed" ||
		VectorReflection.String() != "reflection" ||
		VectorDirect.String() != "direct" {
		t.Error("vector strings")
	}
}

// TestSpecLayout holds a component to 48 bytes: a schedule at the paper's
// attack count holds millions of them for as long as a session lives. It
// took 72 with its own port slice and a stored ID, and 136 with time.Time
// bounds and int counts.
func TestSpecLayout(t *testing.T) {
	if size := unsafe.Sizeof(Spec{}); size > 48 {
		t.Errorf("Spec takes %d bytes, want ≤ 48", size)
	}
}
