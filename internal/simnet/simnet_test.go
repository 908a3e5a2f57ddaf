package simnet

import (
	"math/rand/v2"
	"testing"
	"time"

	"dnsddos/internal/attacksim"
	"dnsddos/internal/clock"
	"dnsddos/internal/dnsdb"
	"dnsddos/internal/netx"
	"dnsddos/internal/nsset"
	"dnsddos/internal/packet"
)

// fixture returns a world with one unicast and one anycast nameserver plus
// an attack builder.
type fixture struct {
	db      *dnsdb.DB
	uni     dnsdb.NameserverID
	any     dnsdb.NameserverID
	uniAddr netx.Addr
	anyAddr netx.Addr
	scrubNS dnsdb.NameserverID
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	db := dnsdb.New()
	pUni := db.AddProvider(dnsdb.Provider{Name: "Uni"})
	pAny := db.AddProvider(dnsdb.Provider{Name: "Any"})
	pScrub := db.AddProvider(dnsdb.Provider{
		Name:           "Scrubbed",
		ScrubbingSince: clock.StudyStart, // always scrubbing
	})
	f := &fixture{db: db}
	f.uniAddr = netx.MustParseAddr("192.0.2.1")
	f.anyAddr = netx.MustParseAddr("198.51.100.1")
	var err error
	f.uni, err = db.AddNameserver(dnsdb.Nameserver{
		Addr: f.uniAddr, Provider: pUni, Sites: 1, CapacityPPS: 1e5, BaseRTT: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.any, err = db.AddNameserver(dnsdb.Nameserver{
		Addr: f.anyAddr, Provider: pAny, Anycast: true, Sites: 20, CapacityPPS: 1e5, BaseRTT: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.scrubNS, err = db.AddNameserver(dnsdb.Nameserver{
		Addr: netx.MustParseAddr("203.0.113.1"), Provider: pScrub, Sites: 1, CapacityPPS: 1e5, BaseRTT: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	db.Freeze()
	return f
}

// component is one attack component and the one port it targets.
type component struct {
	attacksim.Spec
	port uint16
}

func attack(target netx.Addr, start time.Time, dur time.Duration, pps float64, port uint16, vector attacksim.Vector) component {
	return component{attacksim.Spec{
		Target: target, Vector: vector, Proto: packet.ProtoTCP,
		Start: start.UnixNano(), End: start.Add(dur).UnixNano(), PPS: pps,
	}, port}
}

// schedule builds the schedule of components.
func schedule(components ...component) *attacksim.Schedule {
	var b attacksim.Builder
	for _, c := range components {
		b.Add(c.Spec, c.port)
	}
	return b.Schedule()
}

var t0 = clock.StudyStart.Add(48 * time.Hour)

func TestQuietServerFastAndReliable(t *testing.T) {
	f := newFixture(t)
	n := New(DefaultParams(), f.db, schedule())
	rng := rand.New(rand.NewPCG(1, 1))
	var fails int
	for i := 0; i < 2000; i++ {
		st, rtt := n.Query(rng, f.uni, t0)
		if st != nsset.StatusOK {
			fails++
			continue
		}
		if rtt < 5*time.Millisecond || rtt > 20*time.Millisecond {
			t.Fatalf("quiet RTT = %v", rtt)
		}
	}
	if fails > 10 {
		t.Errorf("quiet server failed %d/2000", fails)
	}
}

func TestLoadInflatesRTT(t *testing.T) {
	f := newFixture(t)
	// port-53 attack at 80% of capacity
	sched := schedule(
		attack(f.uniAddr, t0, time.Hour, 8e4, 53, attacksim.VectorRandomSpoofed),
	)
	n := New(DefaultParams(), f.db, sched)
	rng := rand.New(rand.NewPCG(2, 2))
	var sum time.Duration
	var okCount int
	for i := 0; i < 500; i++ {
		st, rtt := n.Query(rng, f.uni, t0.Add(10*time.Minute))
		if st == nsset.StatusOK {
			okCount++
			sum += rtt
		}
	}
	if okCount == 0 {
		t.Fatal("all queries failed at ρ=0.8")
	}
	avg := sum / time.Duration(okCount)
	if avg < 30*time.Millisecond || avg > 120*time.Millisecond {
		t.Errorf("avg RTT under 0.8 load = %v, want ≈50ms (5x)", avg)
	}
}

func TestSaturationCausesTimeouts(t *testing.T) {
	f := newFixture(t)
	sched := schedule(
		attack(f.uniAddr, t0, time.Hour, 3e5, 53, attacksim.VectorRandomSpoofed),
	)
	n := New(DefaultParams(), f.db, sched)
	rng := rand.New(rand.NewPCG(3, 3))
	var fails int
	for i := 0; i < 500; i++ {
		if st, _ := n.Query(rng, f.uni, t0.Add(10*time.Minute)); st != nsset.StatusOK {
			fails++
		}
	}
	if fails < 250 {
		t.Errorf("3x overload failed only %d/500", fails)
	}
}

func TestAnycastAbsorbsAttack(t *testing.T) {
	f := newFixture(t)
	pps := 3e5
	sched := schedule(
		attack(f.anyAddr, t0, time.Hour, pps, 53, attacksim.VectorRandomSpoofed),
	)
	n := New(DefaultParams(), f.db, sched)
	ls := n.LoadStateAt(f.any, t0.Add(10*time.Minute))
	// per-site load = pps/20 → ρ = 0.15
	if ls.LinkUtil > 0.2 {
		t.Errorf("anycast per-site utilization = %v", ls.LinkUtil)
	}
	rng := rand.New(rand.NewPCG(4, 4))
	var fails int
	for i := 0; i < 500; i++ {
		if st, _ := n.Query(rng, f.any, t0.Add(10*time.Minute)); st != nsset.StatusOK {
			fails++
		}
	}
	if fails > 10 {
		t.Errorf("anycast failed %d/500 under the same flood that kills unicast", fails)
	}
}

func TestPortWeighting(t *testing.T) {
	f := newFixture(t)
	mk := func(port uint16) LoadState {
		sched := schedule(
			attack(f.uniAddr, t0, time.Hour, 1e5, port, attacksim.VectorRandomSpoofed),
		)
		return New(DefaultParams(), f.db, sched).LoadStateAt(f.uni, t0.Add(10*time.Minute))
	}
	dns, web := mk(53), mk(80)
	if dns.LinkUtil <= web.LinkUtil {
		t.Errorf("port-53 weight (%v) should exceed port-80 (%v)", dns.LinkUtil, web.LinkUtil)
	}
	if dns.AppUtil == 0 || web.AppUtil != 0 {
		t.Errorf("app util: dns=%v web=%v", dns.AppUtil, web.AppUtil)
	}
}

func TestInvisibleVectorsLoadVictim(t *testing.T) {
	f := newFixture(t)
	sched := schedule(
		attack(f.uniAddr, t0, time.Hour, 2e5, 53, attacksim.VectorDirect),
	)
	n := New(DefaultParams(), f.db, sched)
	if ls := n.LoadStateAt(f.uni, t0.Add(time.Minute)); ls.LinkUtil < 1 {
		t.Errorf("direct vector should load the victim: %v", ls.LinkUtil)
	}
}

func TestSlash24Coupling(t *testing.T) {
	f := newFixture(t)
	neighbor := f.uniAddr.Slash24().Nth(200) // same /24, not a nameserver
	sched := schedule(
		attack(neighbor, t0, time.Hour, 1e5, 80, attacksim.VectorRandomSpoofed),
	)
	n := New(DefaultParams(), f.db, sched)
	ls := n.LoadStateAt(f.uni, t0.Add(time.Minute))
	// coupling 0.7 × weight 0.55 × 1e5/1e5 = 0.385
	if ls.LinkUtil < 0.3 || ls.LinkUtil > 0.5 {
		t.Errorf("coupled utilization = %v, want ≈0.385", ls.LinkUtil)
	}
	// and zero coupling disables it
	p := DefaultParams()
	p.Slash24Coupling = 0
	if ls := New(p, f.db, sched).LoadStateAt(f.uni, t0.Add(time.Minute)); ls.LinkUtil != 0 {
		t.Errorf("no-coupling utilization = %v", ls.LinkUtil)
	}
}

func TestScrubbingEngagesAfterDelay(t *testing.T) {
	f := newFixture(t)
	scrubAddr := f.db.Nameservers[f.scrubNS].Addr
	sched := schedule(
		attack(scrubAddr, t0, 2*time.Hour, 2e5, 53, attacksim.VectorRandomSpoofed),
	)
	n := New(DefaultParams(), f.db, sched)
	before := n.LoadStateAt(f.scrubNS, t0.Add(10*time.Minute)) // within ScrubDelay
	after := n.LoadStateAt(f.scrubNS, t0.Add(40*time.Minute))
	if before.LinkUtil <= after.LinkUtil {
		t.Errorf("scrubbing should shed load: before=%v after=%v", before.LinkUtil, after.LinkUtil)
	}
	wantAfter := before.LinkUtil * (1 - DefaultParams().ScrubEfficiency)
	if diff := after.LinkUtil - wantAfter; diff > 0.01 || diff < -0.01 {
		t.Errorf("post-scrub utilization = %v, want ≈%v", after.LinkUtil, wantAfter)
	}
}

func TestResidualImpairmentDecays(t *testing.T) {
	f := newFixture(t)
	sched := schedule(
		attack(f.uniAddr, t0, time.Hour, 9e4, 53, attacksim.VectorRandomSpoofed),
	)
	n := New(DefaultParams(), f.db, sched)
	end := t0.Add(time.Hour)
	r1 := n.LoadStateAt(f.uni, end.Add(30*time.Minute)).Residual
	r2 := n.LoadStateAt(f.uni, end.Add(3*time.Hour)).Residual
	r3 := n.LoadStateAt(f.uni, end.Add(30*time.Hour)).Residual
	if !(r1 > r2 && r2 > 0) {
		t.Errorf("residual should decay: %v → %v", r1, r2)
	}
	if r3 != 0 {
		t.Errorf("residual should vanish after 8τ: %v", r3)
	}
	// scrubbed providers recover almost immediately
	scrubAddr := f.db.Nameservers[f.scrubNS].Addr
	sched2 := schedule(
		attack(scrubAddr, t0, time.Hour, 9e4, 53, attacksim.VectorRandomSpoofed),
	)
	n2 := New(DefaultParams(), f.db, sched2)
	if r := n2.LoadStateAt(f.scrubNS, end.Add(time.Hour)).Residual; r > 0.01 {
		t.Errorf("scrubbed residual after 1h = %v", r)
	}
}

func TestBlackout(t *testing.T) {
	f := newFixture(t)
	b := Blackout{
		Prefix: f.uniAddr.Slash24(),
		From:   t0,
		To:     t0.Add(time.Hour),
	}
	n := New(DefaultParams(), f.db, schedule(), b)
	rng := rand.New(rand.NewPCG(5, 5))
	if st, _ := n.Query(rng, f.uni, t0.Add(time.Minute)); st != nsset.StatusTimeout {
		t.Errorf("blacked-out query = %v", st)
	}
	if st, _ := n.Query(rng, f.uni, t0.Add(2*time.Hour)); st != nsset.StatusOK {
		t.Errorf("after blackout = %v", st)
	}
	if st, _ := n.Query(rng, f.any, t0.Add(time.Minute)); st != nsset.StatusOK {
		t.Errorf("other prefix during blackout = %v", st)
	}
}

func TestBlackoutCovers(t *testing.T) {
	b := Blackout{Prefix: netx.MustParsePrefix("10.0.0.0/24"), From: t0, To: t0.Add(time.Hour)}
	if !b.Covers(netx.MustParseAddr("10.0.0.7"), t0) {
		t.Error("inside prefix at start")
	}
	if b.Covers(netx.MustParseAddr("10.0.0.7"), t0.Add(time.Hour)) {
		t.Error("exclusive end")
	}
	if b.Covers(netx.MustParseAddr("10.0.1.7"), t0) {
		t.Error("outside prefix")
	}
}

func TestServFailOnAppOverload(t *testing.T) {
	f := newFixture(t)
	sched := schedule(
		attack(f.uniAddr, t0, time.Hour, 5e5, 53, attacksim.VectorRandomSpoofed),
	)
	n := New(DefaultParams(), f.db, sched)
	rng := rand.New(rand.NewPCG(6, 6))
	var timeouts, servfails int
	for i := 0; i < 3000; i++ {
		switch st, _ := n.Query(rng, f.uni, t0.Add(10*time.Minute)); st {
		case nsset.StatusTimeout:
			timeouts++
		case nsset.StatusServFail:
			servfails++
		}
	}
	if servfails == 0 {
		t.Error("app overload should produce some SERVFAILs")
	}
	// the paper's failure split is ≈92% timeout / 8% servfail
	share := float64(servfails) / float64(servfails+timeouts)
	if share > 0.2 {
		t.Errorf("servfail share = %.2f, want small", share)
	}
}

func BenchmarkQueryQuiet(b *testing.B) {
	db := dnsdb.New()
	pid := db.AddProvider(dnsdb.Provider{Name: "P"})
	id, err := db.AddNameserver(dnsdb.Nameserver{
		Addr: 0x0a0a0a0a, Provider: pid, CapacityPPS: 1e5, BaseRTT: 10 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	db.Freeze()
	n := New(DefaultParams(), db, schedule())
	rng := rand.New(rand.NewPCG(1, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Query(rng, id, t0)
	}
}

func BenchmarkQueryUnderAttack(b *testing.B) {
	db := dnsdb.New()
	pid := db.AddProvider(dnsdb.Provider{Name: "P"})
	id, err := db.AddNameserver(dnsdb.Nameserver{
		Addr: 0x0a0a0a0a, Provider: pid, CapacityPPS: 1e5, BaseRTT: 10 * time.Millisecond,
	})
	if err != nil {
		b.Fatal(err)
	}
	db.Freeze()
	sched := schedule(
		attack(0x0a0a0a0a, t0, time.Hour, 1.5e5, 53, attacksim.VectorRandomSpoofed),
	)
	n := New(DefaultParams(), db, sched)
	rng := rand.New(rand.NewPCG(2, 2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Query(rng, id, t0.Add(10*time.Minute))
	}
}
