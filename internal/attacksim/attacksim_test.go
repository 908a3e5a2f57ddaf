package attacksim

import (
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
		Ports:  []uint16{53},
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
	if specs[0].Start >= specs[1].Start {
		t.Error("specs not sorted by start")
	}
	for _, s := range specs {
		if s.ID == 0 || s.GroupID == 0 {
			t.Errorf("missing IDs: %+v", s)
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

// TestSpecLayout holds a component to 72 bytes: a schedule at the paper's
// attack count holds millions of them for as long as a session lives. It
// took 136 with time.Time bounds and int counts.
func TestSpecLayout(t *testing.T) {
	if size := unsafe.Sizeof(Spec{}); size > 72 {
		t.Errorf("Spec takes %d bytes, want ≤ 72", size)
	}
}
