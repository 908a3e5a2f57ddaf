package amppot

import (
	"math/rand/v2"
	"testing"
	"time"

	"dnsddos/internal/attacksim"
	"dnsddos/internal/clock"
	"dnsddos/internal/netx"
	"dnsddos/internal/packet"
)

var base = clock.StudyStart.Add(24 * time.Hour)

func reflSpec(victim string, start time.Time, dur time.Duration, pps float64) attacksim.Spec {
	return attacksim.Spec{
		Target: netx.MustParseAddr(victim),
		Vector: attacksim.VectorReflection,
		Proto:  packet.ProtoUDP,
		Start:  start.UnixNano(),
		End:    start.Add(dur).UnixNano(),
		PPS:    pps,
	}
}

// schedule builds the schedule of specs, each targeting port 53.
func schedule(specs ...attacksim.Spec) *attacksim.Schedule {
	var b attacksim.Builder
	for _, s := range specs {
		b.Add(s, 53)
	}
	return b.Schedule()
}

// highVisibility makes every honeypot a certain reflector pick so tests
// are deterministic in coverage.
func highVisibility() Config {
	cfg := DefaultConfig()
	cfg.ReflectorsPerAttack = cfg.ReflectorPool // attacker uses everything
	return cfg
}

func TestObserveReflectionAttack(t *testing.T) {
	fleet := NewFleet(highVisibility())
	rng := rand.New(rand.NewPCG(1, 1))
	sched := schedule(
		reflSpec("120.0.0.1", base, time.Hour, 1e6),
	)
	attacks := fleet.Observe(rng, sched)
	if len(attacks) != 1 {
		t.Fatalf("attacks = %d", len(attacks))
	}
	a := attacks[0]
	if a.Victim != netx.MustParseAddr("120.0.0.1") || a.Port != 53 {
		t.Errorf("attack = %+v", a)
	}
	if a.Start() != base || a.End() != base.Add(time.Hour) {
		t.Errorf("interval = %v..%v", a.Start(), a.End())
	}
	if a.Honeypots != 48 {
		t.Errorf("honeypots reached = %d", a.Honeypots)
	}
	if a.Requests == 0 {
		t.Error("no requests recorded")
	}
}

func TestSpoofedAttacksInvisible(t *testing.T) {
	fleet := NewFleet(highVisibility())
	rng := rand.New(rand.NewPCG(2, 2))
	sched := schedule(attacksim.Spec{
		Target: netx.MustParseAddr("120.0.0.1"),
		Vector: attacksim.VectorRandomSpoofed,
		Proto:  packet.ProtoTCP,
		Start:  base.UnixNano(), End: base.Add(time.Hour).UnixNano(), PPS: 1e6,
	})
	if got := fleet.Observe(rng, sched); len(got) != 0 {
		t.Errorf("spoofed attack visible to honeypots: %d", len(got))
	}
}

func TestLowRateBelowThresholdFiltered(t *testing.T) {
	cfg := highVisibility()
	cfg.MinRequests = 1000000
	fleet := NewFleet(cfg)
	rng := rand.New(rand.NewPCG(3, 3))
	sched := schedule(
		reflSpec("120.0.0.1", base, time.Hour, 100),
	)
	if got := fleet.Observe(rng, sched); len(got) != 0 {
		t.Errorf("sub-threshold attack inferred: %d", len(got))
	}
}

func TestSmallReflectorSubsetRarelySeen(t *testing.T) {
	// an attacker abusing 10 reflectors out of a million almost never
	// picks a honeypot
	cfg := DefaultConfig()
	cfg.ReflectorsPerAttack = 10
	fleet := NewFleet(cfg)
	rng := rand.New(rand.NewPCG(4, 4))
	var specs []attacksim.Spec
	for i := 0; i < 200; i++ {
		specs = append(specs, reflSpec("120.0.0.1", base.Add(time.Duration(i)*2*time.Hour), time.Hour, 1e6))
	}
	attacks := fleet.Observe(rng, schedule(specs...))
	if len(attacks) > 10 {
		t.Errorf("tiny reflector subsets seen %d/200 times", len(attacks))
	}
}

func TestGapMerging(t *testing.T) {
	fleet := NewFleet(highVisibility())
	rng := rand.New(rand.NewPCG(5, 5))
	sched := schedule(
		reflSpec("120.0.0.1", base, 10*time.Minute, 1e6),
		reflSpec("120.0.0.1", base.Add(15*time.Minute), 10*time.Minute, 1e6), // 1-window gap
		reflSpec("120.0.0.1", base.Add(2*time.Hour), 10*time.Minute, 1e6),    // far later
	)
	attacks := fleet.Observe(rng, sched)
	if len(attacks) != 2 {
		t.Fatalf("attacks = %d, want 2 (merge across small gap, split across large)", len(attacks))
	}
}

func TestCompareFeeds(t *testing.T) {
	v1 := netx.MustParseAddr("120.0.0.1")
	v2 := netx.MustParseAddr("120.0.0.2")
	v3 := netx.MustParseAddr("120.0.0.3")
	spoofed := []SpoofedAttack{
		{Victim: v1, From: base, To: base.Add(time.Hour)},                          // multi-vector: also reflected
		{Victim: v2, From: base, To: base.Add(time.Hour)},                          // spoofed only
		{Victim: v1, From: base.Add(48 * time.Hour), To: base.Add(49 * time.Hour)}, // spoofed only (no overlap)
	}
	reflected := []Attack{
		{Victim: v1, StartWindow: clock.WindowOf(base), EndWindow: clock.WindowOf(base.Add(time.Hour)) - 1},
		{Victim: v3, StartWindow: clock.WindowOf(base), EndWindow: clock.WindowOf(base.Add(time.Hour)) - 1},
	}
	fc := CompareFeeds(spoofed, reflected)
	if fc.Both != 1 || fc.SpoofedOnly != 2 || fc.ReflectedOnly != 1 {
		t.Errorf("comparison = %+v", fc)
	}
	if s := fc.SpoofedShare(); s != 0.75 {
		t.Errorf("spoofed share = %v", s)
	}
}

func TestHoneypotShareStatistics(t *testing.T) {
	// with a sparse pool, P(honeypot selected) = 5000/1e6 per pot; over
	// 48 pots, expected pots-per-attack ≈ 0.24, so roughly 1 in 5
	// attacks is observed at all — the real AmpPot's partial visibility
	cfg := DefaultConfig()
	cfg.ReflectorPool = 1_000_000
	fleet := NewFleet(cfg)
	rng := rand.New(rand.NewPCG(6, 6))
	var specs []attacksim.Spec
	const n = 600
	for i := 0; i < n; i++ {
		v := netx.Addr(0x78000000 + uint32(i))
		specs = append(specs, attacksim.Spec{
			Target: v, Vector: attacksim.VectorReflection, Proto: packet.ProtoUDP,
			Start: base.UnixNano(), End: base.Add(time.Hour).UnixNano(), PPS: 5e6,
		})
	}
	attacks := fleet.Observe(rng, schedule(specs...))
	frac := float64(len(attacks)) / n
	// P(≥1 pot) = 1-(1-0.005)^48 ≈ 0.214
	if frac < 0.13 || frac > 0.30 {
		t.Errorf("observed fraction = %.3f, want ≈0.21", frac)
	}
}
