package simnet

import (
	"math/rand/v2"
	"testing"
	"time"

	"dnsddos/internal/attacksim"
	"dnsddos/internal/nsset"
)

func TestVantageRTTScale(t *testing.T) {
	f := newFixture(t)
	n := New(DefaultParams(), f.db, schedule())
	us := n.WithVantage(Vantage{Name: "us-east", RTTScale: 8, CatchmentSeed: 1})
	rng := rand.New(rand.NewPCG(1, 1))
	var nl, usSum time.Duration
	const trials = 300
	for i := 0; i < trials; i++ {
		_, r1 := n.Query(rng, f.uni, t0)
		_, r2 := us.Query(rng, f.uni, t0)
		nl += r1
		usSum += r2
	}
	ratio := float64(usSum) / float64(nl)
	if ratio < 6 || ratio > 10 {
		t.Errorf("US/NL unicast RTT ratio = %.2f, want ≈8", ratio)
	}
	// anycast reaches a nearby site from both vantages: no scaling
	var nlAny, usAny time.Duration
	for i := 0; i < trials; i++ {
		_, r1 := n.Query(rng, f.any, t0)
		_, r2 := us.Query(rng, f.any, t0)
		nlAny += r1
		usAny += r2
	}
	anyRatio := float64(usAny) / float64(nlAny)
	if anyRatio < 0.8 || anyRatio > 1.25 {
		t.Errorf("anycast RTT ratio across vantages = %.2f, want ≈1", anyRatio)
	}
}

func TestCatchmentMasking(t *testing.T) {
	f := newFixture(t)
	// attack big enough that a hot anycast site saturates while a cold
	// one stays comfortable: per-even-site load = 1.2e5/20 = 6e3 → with
	// site factors in [0.1,1.9] utilization spans [0.006, 0.114]... use
	// a larger attack so the spread crosses the congestion knee
	sched := schedule(
		attack(f.anyAddr, t0, time.Hour, 3.2e6, 53, attacksim.VectorRandomSpoofed),
	)
	n := New(DefaultParams(), f.db, sched)
	ns := &f.db.Nameservers[f.any]

	// different vantages map to different sites with different load
	var utils []float64
	seen := map[int]bool{}
	for seed := uint64(0); seed < 40; seed++ {
		v := n.WithVantage(Vantage{Name: "v", RTTScale: 1, CatchmentSeed: seed})
		seen[v.siteOf(ns)] = true
		utils = append(utils, v.LoadStateAt(f.any, t0.Add(10*time.Minute)).Utilization())
	}
	if len(seen) < 5 {
		t.Fatalf("40 vantages landed on only %d sites", len(seen))
	}
	min, max := utils[0], utils[0]
	for _, u := range utils {
		if u < min {
			min = u
		}
		if u > max {
			max = u
		}
	}
	if max/min < 2 {
		t.Errorf("catchment load spread = [%.2f, %.2f]; sites should load unevenly", min, max)
	}
}

func TestCatchmentMaskingEndToEnd(t *testing.T) {
	f := newFixture(t)
	sched := schedule(
		attack(f.anyAddr, t0, time.Hour, 6e6, 53, attacksim.VectorRandomSpoofed),
	)
	n := New(DefaultParams(), f.db, sched)
	rng := rand.New(rand.NewPCG(2, 2))
	// find a hot-site vantage and a cold-site vantage
	ns := &f.db.Nameservers[f.any]
	var hot, cold *Net
	for seed := uint64(0); seed < 64; seed++ {
		v := n.WithVantage(Vantage{CatchmentSeed: seed})
		factor := siteLoadFactor(ns, v.siteOf(ns))
		if factor > 1.6 && hot == nil {
			hot = v
		}
		if factor < 0.4 && cold == nil {
			cold = v
		}
	}
	if hot == nil || cold == nil {
		t.Skip("no sufficiently hot/cold site found for this fixture")
	}
	fails := func(net *Net) int {
		n := 0
		for i := 0; i < 400; i++ {
			if st, _ := net.Query(rng, f.any, t0.Add(10*time.Minute)); st != nsset.StatusOK {
				n++
			}
		}
		return n
	}
	hotFails, coldFails := fails(hot), fails(cold)
	if hotFails <= coldFails {
		t.Errorf("hot-site vantage failed %d vs cold-site %d; attack should be masked from the cold catchment", hotFails, coldFails)
	}
}

func TestSiteLoadFactorMeanNearOne(t *testing.T) {
	f := newFixture(t)
	ns := &f.db.Nameservers[f.any]
	var sum float64
	for s := 0; s < ns.Sites; s++ {
		fac := siteLoadFactor(ns, s)
		if fac < 0.1 || fac > 1.9 {
			t.Fatalf("site factor %v out of range", fac)
		}
		sum += fac
	}
	mean := sum / float64(ns.Sites)
	if mean < 0.7 || mean > 1.3 {
		t.Errorf("mean site factor = %.2f, want ≈1 (load conservation)", mean)
	}
}

func TestUnicastUnaffectedByVantageSeed(t *testing.T) {
	f := newFixture(t)
	sched := schedule(
		attack(f.uniAddr, t0, time.Hour, 8e4, 53, attacksim.VectorRandomSpoofed),
	)
	n := New(DefaultParams(), f.db, sched)
	u1 := n.WithVantage(Vantage{CatchmentSeed: 1}).LoadStateAt(f.uni, t0.Add(time.Minute))
	u2 := n.WithVantage(Vantage{CatchmentSeed: 99}).LoadStateAt(f.uni, t0.Add(time.Minute))
	if u1 != u2 {
		t.Errorf("unicast load differs across vantages: %+v vs %+v", u1, u2)
	}
}
