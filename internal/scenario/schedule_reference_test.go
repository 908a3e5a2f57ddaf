package scenario

import (
	"math"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"
	"time"

	"dnsddos/internal/attacksim"
	"dnsddos/internal/clock"
	"dnsddos/internal/netx"
	"dnsddos/internal/packet"
)

// schedule_reference_test.go keeps the schedule generator as it was before
// it built in place: a slice returned per attack and grown by append, a
// port list (and a dedup map) allocated per attack, an insertion sort over
// the victim pool, and NewSchedule's reflection-swapped sort.SliceStable.
// The draws it makes are the production helpers' (startIn, duration,
// intensity, pickDNSVictim), which this change did not touch; GenerateSchedule
// must make the same draws in the same order and produce a DeepEqual
// schedule.

func generateScheduleReference(cfg AttackConfig, w *World) (*Schedule, []attacksim.Spec) {
	g := &schedGen{cfg: cfg, w: w, rng: rand.New(rand.NewPCG(cfg.Seed, 0xa77ac))}
	buildVictimPoolsReference(g)
	var specs []attacksim.Spec
	months := clock.StudyMonths()
	var wsum float64
	for _, mw := range monthWeights {
		wsum += mw
	}
	for mi, m := range months {
		n := int(float64(cfg.TotalAttacks) * monthWeights[mi%len(monthWeights)] / wsum)
		for i := 0; i < n; i++ {
			specs = append(specs, randomAttackReference(g, m)...)
		}
		nr := int(float64(n) * cfg.ReflectionOnlyRatio)
		for i := 0; i < nr; i++ {
			specs = append(specs, reflectionOnlyAttackReference(g, m))
		}
	}
	out := &Schedule{}
	if cfg.IncludeCaseStudies {
		cs, csSpecs, blackouts := caseStudySpecs(w)
		out.CaseStudies = cs
		specs = append(specs, csSpecs...)
		out.Blackouts = blackouts
		specs = append(specs, russianSurgeReference(g)...)
	}
	// NewSchedule's old sort
	sorted := make([]attacksim.Spec, len(specs))
	copy(sorted, specs)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Start.Before(sorted[j].Start) })
	for i := range sorted {
		if sorted[i].ID == 0 {
			sorted[i].ID = i + 1
		}
		if sorted[i].GroupID == 0 {
			sorted[i].GroupID = sorted[i].ID
		}
	}
	return out, sorted
}

func sortAddrsReference(a []netx.Addr) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

func buildVictimPoolsReference(g *schedGen) {
	seen := make(map[netx.Prefix]struct{})
	var cum float64
	for addr := range g.w.DB.AllNSAddrs() {
		g.dnsAddrs = append(g.dnsAddrs, addr)
	}
	sortAddrsReference(g.dnsAddrs)
	for _, addr := range g.dnsAddrs {
		weight := g.w.AttackWeights[addr]
		if weight <= 0 {
			weight = 0.05
		}
		cum += weight
		g.dnsWeights = append(g.dnsWeights, cum)
		p24 := addr.Slash24()
		if _, ok := seen[p24]; !ok {
			seen[p24] = struct{}{}
			g.ns24s = append(g.ns24s, p24)
		}
	}
}

func randomAttackReference(g *schedGen, m clock.Month) []attacksim.Spec {
	g.groupID++
	start := g.startIn(m)
	dur := g.duration()
	pps := g.intensity()
	proto, ports := protoPortsReference(g)
	var victim netx.Addr
	isDNS := false
	switch u := g.rng.Float64(); {
	case u < g.cfg.DNSShare:
		victim = g.pickDNSVictim()
		isDNS = true
		if pps > 2.5e5 {
			for try := 0; try < 4; try++ {
				if ns, ok := g.w.DB.NameserverByAddr(victim); ok && ns.CapacityPPS >= 1e6 {
					break
				}
				victim = g.pickDNSVictim()
			}
		}
	case u < g.cfg.DNSShare+g.cfg.Slash24Share && len(g.ns24s) > 0:
		p := g.ns24s[g.rng.IntN(len(g.ns24s))]
		victim = p.Nth(uint64(1 + g.rng.IntN(8)))
		if _, isNS := g.w.DB.NameserverByAddr(victim); isNS {
			victim = p.Nth(250)
		}
	default:
		victim = g.w.OtherSpace.RandomAddr(g.rng)
	}
	bytes := 60
	if proto == packet.ProtoUDP {
		bytes = 120 + g.rng.IntN(400)
	}
	specs := []attacksim.Spec{{
		GroupID: g.groupID, Target: victim, Vector: attacksim.VectorRandomSpoofed, Proto: proto, Ports: ports,
		Start: start, End: start.Add(dur), PPS: pps, PacketBytes: bytes,
	}}
	if isDNS && g.rng.Float64() < g.cfg.MultiVectorShare {
		specs = append(specs, attacksim.Spec{
			GroupID: g.groupID, Target: victim, Vector: attacksim.VectorReflection, Proto: packet.ProtoUDP, Ports: []uint16{53},
			Start: start, End: start.Add(dur), PPS: 2 * g.intensity() * math.Exp(g.rng.NormFloat64()*0.8), PacketBytes: 512,
		})
	}
	return specs
}

func russianSurgeReference(g *schedGen) []attacksim.Spec {
	var out []attacksim.Spec
	var targets []netx.Addr
	for _, ns := range g.w.DB.Nameservers {
		if g.w.DB.Providers[ns.Provider].Country == "RU" {
			targets = append(targets, ns.Addr)
		}
	}
	sortAddrsReference(targets)
	if len(targets) == 0 {
		return nil
	}
	march := clock.Month{Year: 2022, Month: time.March}
	n := 8 + g.rng.IntN(8)
	for i := 0; i < n; i++ {
		g.groupID++
		start := g.startIn(march)
		out = append(out, attacksim.Spec{
			GroupID: g.groupID, Target: targets[g.rng.IntN(len(targets))], Vector: attacksim.VectorRandomSpoofed,
			Proto: packet.ProtoTCP, Ports: []uint16{53}, Start: start, End: start.Add(g.duration()), PPS: g.intensity(), PacketBytes: 60,
		})
	}
	return out
}

func reflectionOnlyAttackReference(g *schedGen, m clock.Month) attacksim.Spec {
	g.groupID++
	start := g.startIn(m)
	victim := g.w.OtherSpace.RandomAddr(g.rng)
	if g.rng.Float64() < g.cfg.DNSShare {
		victim = g.pickDNSVictim()
	}
	return attacksim.Spec{
		GroupID: g.groupID, Target: victim, Vector: attacksim.VectorReflection, Proto: packet.ProtoUDP, Ports: []uint16{53},
		Start: start, End: start.Add(g.duration()), PPS: g.intensity(), PacketBytes: 512,
	}
}

func protoPortsReference(g *schedGen) (packet.Protocol, []uint16) {
	single := g.rng.Float64() < 0.807
	proto := packet.ProtoTCP
	switch u := g.rng.Float64(); {
	case u < 0.904:
		proto = packet.ProtoTCP
	case u < 0.988:
		proto = packet.ProtoUDP
	default:
		proto = packet.ProtoICMP
	}
	if proto == packet.ProtoICMP {
		return proto, nil
	}
	port := func() uint16 {
		if proto == packet.ProtoTCP {
			switch u := g.rng.Float64(); {
			case u < 0.37:
				return 80
			case u < 0.67:
				return 53
			case u < 0.82:
				return 443
			default:
				return uint16(1 + g.rng.IntN(65000))
			}
		}
		if g.rng.Float64() < 1.0/3 {
			return 53
		}
		return uint16(1 + g.rng.IntN(65000))
	}
	if single {
		return proto, []uint16{port()}
	}
	n := 2 + g.rng.IntN(6)
	ports := make([]uint16, 0, n)
	seen := make(map[uint16]bool)
	for len(ports) < n {
		p := port()
		if !seen[p] {
			seen[p] = true
			ports = append(ports, p)
		}
	}
	return proto, ports
}

// TestGenerateScheduleMatchesReference holds the in-place generator to the
// one it replaced on five seeds, with and without the case studies, at the
// default DNS share and at join_dense's 0.15 (where multi-vector attacks,
// and so the specs slice's headroom, matter): the same specs in the same
// order — ports, nil ICMP lists and IDs included — the same case-study
// annotations and blackouts, and every port list's capacity clamped.
func TestGenerateScheduleMatchesReference(t *testing.T) {
	w := smallWorld(t)
	for seed := uint64(1); seed <= 5; seed++ {
		for _, cases := range []bool{false, true} {
			cfg := DefaultAttackConfig()
			cfg.Seed = seed
			cfg.TotalAttacks = 1500
			cfg.IncludeCaseStudies = cases
			if seed%2 == 0 {
				cfg.DNSShare = 0.15
			}
			got := GenerateSchedule(cfg, w)
			want, wantSpecs := generateScheduleReference(cfg, w)
			if !reflect.DeepEqual(got.Sched.Specs(), wantSpecs) {
				specs := got.Sched.Specs()
				t.Errorf("seed %d, case studies %v: %d specs, reference %d", seed, cases, len(specs), len(wantSpecs))
				for i := range min(len(specs), len(wantSpecs)) {
					if !reflect.DeepEqual(specs[i], wantSpecs[i]) {
						t.Fatalf("first difference at %d:\n got %+v\nwant %+v", i, specs[i], wantSpecs[i])
					}
				}
				continue
			}
			if !reflect.DeepEqual(got.CaseStudies, want.CaseStudies) || !reflect.DeepEqual(got.Blackouts, want.Blackouts) {
				t.Errorf("seed %d, case studies %v: annotations differ from the reference", seed, cases)
			}
			for i, s := range got.Sched.Specs() {
				if cap(s.Ports) != len(s.Ports) {
					t.Fatalf("seed %d: spec %d has room for %d ports and holds %d", seed, i, cap(s.Ports), len(s.Ports))
				}
			}
		}
	}
}
