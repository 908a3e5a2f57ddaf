package simnet

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"dnsddos/internal/attacksim"
	"dnsddos/internal/clock"
	"dnsddos/internal/dnsdb"
	"dnsddos/internal/netx"
	"dnsddos/internal/packet"
)

// loadReference is the load model as it stood before New resolved the
// schedule into a per-nameserver index: two maps holding every spec by
// value, hashed per query, no time bracket, the port weight recomputed
// per use. It is the oracle TestLoadStateMatchesReference holds loadAt to,
// bit for bit.
type loadReference struct {
	n              *Net
	specsByAddr    map[netx.Addr][]attacksim.Spec
	specsBySlash24 map[netx.Prefix][]attacksim.Spec
}

func newLoadReference(n *Net, sched *attacksim.Schedule) *loadReference {
	r := &loadReference{
		n:              n,
		specsByAddr:    make(map[netx.Addr][]attacksim.Spec),
		specsBySlash24: make(map[netx.Prefix][]attacksim.Spec),
	}
	for _, s := range sched.Specs() {
		r.specsByAddr[s.Target] = append(r.specsByAddr[s.Target], s)
		k := s.Target.Slash24()
		r.specsBySlash24[k] = append(r.specsBySlash24[k], s)
	}
	return r
}

func (r *loadReference) portWeight(s *attacksim.Spec) float64 {
	for _, p := range s.Ports {
		if p == 53 {
			return r.n.params.AppPortWeight
		}
	}
	if len(s.Ports) == 0 { // ICMP flood: link stress only
		return r.n.params.LinkPortWeight
	}
	return r.n.params.LinkPortWeight
}

func (r *loadReference) loadAt(id dnsdb.NameserverID, t time.Time) LoadState {
	n := r.n
	ns := &n.db.Nameservers[id]
	provider := n.db.Providers[ns.Provider]
	w := clock.WindowOf(t)
	var ls LoadState
	sites := float64(ns.Sites)
	if sites < 1 {
		sites = 1
	}
	siteFactor := siteLoadFactor(ns, n.siteOf(ns))
	sites /= siteFactor
	cap := ns.CapacityPPS
	if cap <= 0 {
		cap = 1
	}
	add := func(s *attacksim.Spec, coupling float64) {
		load := s.WindowLoad(w)
		if load > 0 {
			load *= n.scrubFactor(provider.ScrubbingAt(t), s, t) * coupling / sites
			ls.LinkUtil += load * r.portWeight(s) / cap
			if r.portWeight(s) >= n.params.AppPortWeight {
				ls.AppUtil += load / cap
			}
			return
		}
		if !s.End.After(t) {
			tau := n.params.RecoveryTau
			if provider.ScrubbingAt(s.End) {
				tau = n.params.ScrubbedRecoveryTau
			}
			age := t.Sub(s.End)
			if age > 8*tau {
				return
			}
			endW := clock.WindowOf(s.End.Add(-time.Nanosecond))
			peak := s.WindowLoad(endW) * n.scrubFactor(provider.ScrubbingAt(s.End), s, s.End) * coupling / sites
			res := peak / cap * math.Exp(-float64(age)/float64(tau))
			if res > 50 {
				res = 50
			}
			if res > ls.Residual {
				ls.Residual = res
			}
		}
	}
	for i := range r.specsByAddr[ns.Addr] {
		add(&r.specsByAddr[ns.Addr][i], 1)
	}
	if n.params.Slash24Coupling > 0 {
		for i := range r.specsBySlash24[ns.Addr.Slash24()] {
			s := &r.specsBySlash24[ns.Addr.Slash24()][i]
			if s.Target != ns.Addr {
				add(s, n.params.Slash24Coupling)
			}
		}
	}
	return ls
}

// referenceWorld generates a world that exercises every branch of the load
// model: providers that never scrub, always scrub, and start scrubbing
// mid-study; unicast and anycast servers sharing /24s; and overlapping
// attacks — on nameservers, on their non-nameserver /24 neighbours and on
// unrelated hosts — with DNS, non-DNS, mixed and no (ICMP) ports, starting
// and ending off the 5-minute grid.
func referenceWorld(t *testing.T, rng *rand.Rand) (*dnsdb.DB, *attacksim.Schedule) {
	t.Helper()
	db := dnsdb.New()
	scrubSince := []time.Time{{}, clock.StudyStart, t0.Add(36 * time.Hour)}
	for _, since := range scrubSince {
		db.AddProvider(dnsdb.Provider{Name: "P", ScrubbingSince: since})
	}
	var targets []netx.Addr
	for net := 0; net < 20; net++ {
		base := netx.Addr(0x0b000000 + net*256)
		for host := 1; host <= 1+rng.IntN(4); host++ {
			ns := dnsdb.Nameserver{
				Addr: base + netx.Addr(host), Provider: dnsdb.ProviderID(rng.IntN(len(scrubSince))),
				Sites: 1, CapacityPPS: 5e4 + 1e5*rng.Float64(), BaseRTT: 10 * time.Millisecond,
			}
			if rng.IntN(3) == 0 {
				ns.Anycast, ns.Sites = true, 2+rng.IntN(30)
			}
			if _, err := db.AddNameserver(ns); err != nil {
				t.Fatal(err)
			}
			targets = append(targets, ns.Addr)
		}
		targets = append(targets, base+200) // a /24 neighbour that is no nameserver
	}
	targets = append(targets, 0x0c000001) // and a host nowhere near one
	db.Freeze()

	ports := [][]uint16{{53}, {80}, {80, 53}, nil}
	specs := make([]attacksim.Spec, 200)
	for i := range specs {
		start := t0.Add(time.Duration(rng.Int64N(int64(96 * time.Hour))))
		if i%4 == 0 {
			start = start.Truncate(clock.WindowDur) // some on the grid
		}
		specs[i] = attacksim.Spec{
			Target: targets[rng.IntN(len(targets))], Proto: packet.ProtoTCP, Ports: ports[rng.IntN(len(ports))],
			Start: start, End: start.Add(time.Second + time.Duration(rng.Int64N(int64(6*time.Hour)))),
			PPS: 1e3 + 4e5*rng.Float64(),
		}
	}
	return db, attacksim.NewSchedule(specs)
}

// denseWorld puts three nameservers (one per scrubbing kind, one of them
// anycast) and a host that is no nameserver into one /24 under 124
// attacks, so every server's list holds both runs. Each run opens with an
// attack of about a day and goes on with short ones that end, residual
// included, before the long one's residual does: the running max of until
// stays on the long attack while the short ones' own until falls below it —
// the list a binary search on until itself would cut wrong.
func denseWorld(t *testing.T, rng *rand.Rand) (*dnsdb.DB, *attacksim.Schedule) {
	t.Helper()
	db := dnsdb.New()
	for _, since := range []time.Time{{}, clock.StudyStart, t0.Add(12 * time.Hour)} {
		db.AddProvider(dnsdb.Provider{Name: "P", ScrubbingSince: since})
	}
	base := netx.Addr(0x0d000000)
	for host := 1; host <= 3; host++ {
		ns := dnsdb.Nameserver{Addr: base + netx.Addr(host), Provider: dnsdb.ProviderID(host - 1),
			Sites: 1, CapacityPPS: 5e4 + 1e5*rng.Float64(), BaseRTT: 10 * time.Millisecond}
		if host == 2 {
			ns.Anycast, ns.Sites = true, 8
		}
		if _, err := db.AddNameserver(ns); err != nil {
			t.Fatal(err)
		}
	}
	db.Freeze()
	targets := []netx.Addr{base + 1, base + 2, base + 3, base + 200}
	ports := [][]uint16{{53}, {80}, {80, 53}, nil}
	var specs []attacksim.Spec
	add := func(start time.Time, dur time.Duration) {
		specs = append(specs, attacksim.Spec{
			Target: targets[len(specs)%len(targets)], Proto: packet.ProtoTCP, Ports: ports[rng.IntN(len(ports))],
			Start: start, End: start.Add(dur), PPS: 1e3 + 4e5*rng.Float64(),
		})
	}
	for range targets { // the long ones, one per target
		add(t0.Add(time.Duration(rng.Int64N(int64(time.Hour)))), 18*time.Hour+time.Duration(rng.Int64N(int64(6*time.Hour))))
	}
	for range 120 {
		start := t0.Add(2*time.Hour + time.Duration(rng.Int64N(int64(30*time.Hour))))
		if rng.IntN(4) == 0 {
			start = start.Truncate(clock.WindowDur)
		}
		add(start, time.Second+time.Duration(rng.Int64N(int64(40*time.Minute))))
	}
	return db, attacksim.NewSchedule(specs)
}

// TestLoadStateMatchesReference holds the indexed loadAt to the two-map
// one it replaced. For every nameserver and every spec in its /24, at each
// instant where either implementation changes branch — the bracket's
// edges, the attack's, the scrubbing delay's, both residual horizons', ±1
// ns — plus the far past and future, under two vantages and under model
// constants that move the bracket's edges (residuals shorter than a
// window, neighbour coupling of 1 and of 0), the three fields are
// bit-equal: on a random world of 20 /24s, and on denseWorld's one.
func TestLoadStateMatchesReference(t *testing.T) {
	random, dense := rand.New(rand.NewPCG(18, 18)), rand.New(rand.NewPCG(25, 25))
	db, sched := referenceWorld(t, random)
	denseDB, denseSched := denseWorld(t, dense)
	// the dense list is what its comment says: both runs, and a running
	// max above the ref's own until in each
	for id, runs := range New(DefaultParams(), denseDB, denseSched).specs {
		if len(runs[0])+len(runs[1]) < 100 || len(runs[0]) == 0 || len(runs[1]) == 0 {
			t.Fatalf("dense world: server %d has %d own refs and %d neighbour refs", id, len(runs[0]), len(runs[1]))
		}
		for _, run := range runs {
			if !slices.ContainsFunc(run, func(e specRef) bool { return e.maxUntil != e.until }) {
				t.Fatalf("dense world: server %d has a run whose running max is every ref's until", id)
			}
		}
	}
	short := DefaultParams()
	short.RecoveryTau, short.ScrubbedRecoveryTau, short.Slash24Coupling = 10*time.Second, time.Second, 1
	uncoupled := DefaultParams()
	uncoupled.Slash24Coupling = 0
	vantages := []Vantage{DefaultVantage(), {Name: "us-east", RTTScale: 1.7, CatchmentSeed: 12345}}

	for _, world := range []struct {
		name  string
		db    *dnsdb.DB
		sched *attacksim.Schedule
	}{{"random", db, sched}, {"dense", denseDB, denseSched}} {
		checkLoadStates(t, world.name, world.db, world.sched, []Params{DefaultParams(), short, uncoupled}, vantages)
	}
}

func checkLoadStates(t *testing.T, world string, db *dnsdb.DB, sched *attacksim.Schedule, paramSets []Params, vantages []Vantage) {
	t.Helper()
	checked, nonzero := 0, 0
	for _, params := range paramSets {
		base := New(params, db, sched)
		for _, v := range vantages {
			n := base.WithVantage(v)
			ref := newLoadReference(n, sched)
			for id := range db.Nameservers {
				nsID := dnsdb.NameserverID(id)
				times := []time.Time{clock.StudyStart.Add(-1000 * time.Hour), t0.Add(10000 * time.Hour)}
				for _, s := range sched.Specs() {
					if s.Target.Slash24() != db.Nameservers[id].Addr.Slash24() {
						continue
					}
					for _, edge := range []time.Time{
						clock.WindowOf(s.Start).Start(), s.Start, s.Start.Add(params.ScrubDelay),
						s.End, clock.WindowOf(s.End).End(), s.End.Add(clock.WindowDur),
						s.End.Add(8 * params.RecoveryTau), s.End.Add(8 * params.ScrubbedRecoveryTau),
					} {
						times = append(times, edge.Add(-time.Nanosecond), edge, edge.Add(time.Nanosecond))
					}
				}
				for _, at := range times {
					got, want := n.LoadStateAt(nsID, at), ref.loadAt(nsID, at)
					if math.Float64bits(got.LinkUtil) != math.Float64bits(want.LinkUtil) ||
						math.Float64bits(got.AppUtil) != math.Float64bits(want.AppUtil) ||
						math.Float64bits(got.Residual) != math.Float64bits(want.Residual) {
						t.Fatalf("%s world, vantage %s ns %d at %v: load %+v, reference %+v", world, v.Name, id, at, got, want)
					}
					checked++
					if want != (LoadState{}) {
						nonzero++
					}
				}
			}
		}
	}
	// the comparison must not be vacuous: a good share of the instants
	// probed carry load or residual
	if nonzero*4 < checked {
		t.Errorf("%s world: only %d of %d probed instants were loaded", world, nonzero, checked)
	}
}
