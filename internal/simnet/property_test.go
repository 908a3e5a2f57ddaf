package simnet

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
	"time"

	"dnsddos/internal/attacksim"
	"dnsddos/internal/nsset"
)

// failRate measures the empirical failure probability under a given attack
// rate against the fixture's unicast nameserver.
func failRate(t *testing.T, f *fixture, pps float64) float64 {
	t.Helper()
	var sched *attacksim.Schedule
	if pps > 0 {
		sched = schedule(
			attack(f.uniAddr, t0, time.Hour, pps, 53, attacksim.VectorRandomSpoofed),
		)
	} else {
		sched = schedule()
	}
	n := New(DefaultParams(), f.db, sched)
	rng := rand.New(rand.NewPCG(uint64(pps)+1, 17))
	fails := 0
	const trials = 800
	for i := 0; i < trials; i++ {
		if st, _ := n.Query(rng, f.uni, t0.Add(10*time.Minute)); st != nsset.StatusOK {
			fails++
		}
	}
	return float64(fails) / trials
}

// TestFailureMonotoneInLoad: more attack traffic never helps the victim.
func TestFailureMonotoneInLoad(t *testing.T) {
	f := newFixture(t)
	rates := []float64{0, 5e4, 9e4, 1.5e5, 3e5, 1e6}
	prev := -0.05
	for _, pps := range rates {
		fr := failRate(t, f, pps)
		if fr < prev-0.05 { // statistical slack
			t.Errorf("failure rate decreased with load: %.3f at %.0f pps (prev %.3f)", fr, pps, prev)
		}
		if fr > prev {
			prev = fr
		}
	}
	if last := failRate(t, f, 1e6); last < 0.5 {
		t.Errorf("10x overload only fails %.2f of queries", last)
	}
}

// TestRTTMonotoneInUtilization: the congestion curve itself is monotone.
func TestRTTMonotoneInUtilization(t *testing.T) {
	f := newFixture(t)
	mkNet := func(pps float64) *Net {
		return New(DefaultParams(), f.db, schedule(
			attack(f.uniAddr, t0, time.Hour, pps, 53, attacksim.VectorRandomSpoofed),
		))
	}
	prevUtil := -1.0
	for _, pps := range []float64{1e4, 5e4, 8e4, 9.5e4, 1.2e5, 5e5} {
		u := mkNet(pps).LoadStateAt(f.uni, t0.Add(10*time.Minute)).Utilization()
		if u <= prevUtil {
			t.Errorf("utilization not increasing: %.3f at %.0f pps", u, pps)
		}
		prevUtil = u
	}
}

// TestQueryNeverPanicsOnRandomTimes: the data plane is total over the whole
// study window, before, and after.
func TestQueryNeverPanicsOnRandomTimes(t *testing.T) {
	f := newFixture(t)
	sched := schedule(
		attack(f.uniAddr, t0, time.Hour, 2e5, 53, attacksim.VectorRandomSpoofed),
	)
	n := New(DefaultParams(), f.db, sched)
	check := func(seed uint64, offsetHours int16, nsPick bool) bool {
		rng := rand.New(rand.NewPCG(seed, 3))
		id := f.uni
		if nsPick {
			id = f.any
		}
		tm := t0.Add(time.Duration(offsetHours) * time.Hour)
		st, rtt := n.Query(rng, id, tm)
		if st == nsset.StatusOK {
			return rtt > 0
		}
		return rtt == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestLoadStateDeterministic: the load model is a pure function of
// (nameserver, time).
func TestLoadStateDeterministic(t *testing.T) {
	f := newFixture(t)
	sched := schedule(
		attack(f.uniAddr, t0, time.Hour, 1.3e5, 53, attacksim.VectorRandomSpoofed),
		attack(f.uniAddr.Slash24().Nth(77), t0, 2*time.Hour, 9e4, 80, attacksim.VectorRandomSpoofed),
	)
	n := New(DefaultParams(), f.db, sched)
	for i := 0; i < 50; i++ {
		tm := t0.Add(time.Duration(i) * 7 * time.Minute)
		a := n.LoadStateAt(f.uni, tm)
		b := n.LoadStateAt(f.uni, tm)
		if a != b {
			t.Fatalf("load state not deterministic at %v: %+v vs %+v", tm, a, b)
		}
	}
}
