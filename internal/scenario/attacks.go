package scenario

import (
	"math"
	"math/rand/v2"
	"slices"
	"time"

	"dnsddos/internal/attacksim"
	"dnsddos/internal/clock"
	"dnsddos/internal/netx"
	"dnsddos/internal/packet"
	"dnsddos/internal/simnet"
)

// AttackConfig sizes the 17-month synthetic attack schedule.
type AttackConfig struct {
	Seed uint64
	// TotalAttacks is the number of randomly spoofed (telescope-visible)
	// attacks over the study window. The real feed has ~4×10⁶; shapes
	// hold at 10⁴–10⁵.
	TotalAttacks int
	// DNSShare is the probability an attack targets an NS-recorded IP
	// (the paper observes 0.57–2.12% monthly, ~1.2% overall).
	DNSShare float64
	// Slash24Share is the probability an attack targets a non-NS host
	// inside a nameserver /24.
	Slash24Share float64
	// MultiVectorShare is the probability a DNS attack carries an extra
	// telescope-invisible component (reflection/direct).
	MultiVectorShare float64
	// ReflectionOnlyRatio adds standalone reflection attacks (invisible
	// to the telescope, visible to AmpPot honeypots) as a fraction of
	// TotalAttacks. Jonker et al. observed ≈60% spoofed / 40% reflected,
	// i.e. a ratio of ≈0.67.
	ReflectionOnlyRatio float64
	// IncludeCaseStudies adds the scripted §5 attacks.
	IncludeCaseStudies bool
}

// DefaultAttackConfig returns the standard longitudinal schedule sizing.
func DefaultAttackConfig() AttackConfig {
	return AttackConfig{
		Seed:                7,
		TotalAttacks:        60000,
		DNSShare:            0.013,
		Slash24Share:        0.002,
		MultiVectorShare:    0.55,
		ReflectionOnlyRatio: 0.67,
		IncludeCaseStudies:  true,
	}
}

// monthWeights are the relative monthly attack volumes of Table 3, used to
// shape the synthetic schedule's seasonality.
var monthWeights = []float64{
	159434, 359918, // 2020-11, 2020-12
	174016, 144822, 279797, 165883, 199513, 230118, 338193, 292842, 245290, 228092, 284569, 221054, // 2021
	235027, 239775, 241142, // 2022-01..03
}

// Schedule is the generated schedule plus its case-study annotations.
type Schedule struct {
	Sched *attacksim.Schedule
	// Blackouts carries geofencing events for the data plane.
	Blackouts []simnet.Blackout
	// CaseStudies annotates the scripted attacks.
	CaseStudies CaseStudies
}

// CaseStudies exposes the scripted §5 timelines for the report catalogue.
type CaseStudies struct {
	TransIPDecStart, TransIPDecEnd time.Time
	TransIPMarStart, TransIPMarEnd time.Time
	TransIPNS                      [3]netx.Addr
	MilRuStart, MilRuEnd           time.Time
	MilRuNS                        []netx.Addr
	RZDStart, RZDEnd               time.Time
	RZDNS                          []netx.Addr
	// RZDTelegram is when the IT-ARMY channel posted the RDZ nameserver
	// IPs — 12 minutes after the RSDoS-inferred start (Fig. 4).
	RZDTelegram time.Time
}

// GenerateSchedule builds the full 17-month schedule for a world. Its
// components are appended, in draw order, to one array reserved for them
// (multiVectorReserve), which the schedule orders in place and keeps,
// and their port lists to the schedule's one port array.
func GenerateSchedule(cfg AttackConfig, w *World) *Schedule {
	return generateSchedule(cfg, w, multiVectorReserve(cfg))
}

// multiVectorReserve is the room a schedule reserves for its random
// attacks' multi-vector components, the only part of its count the draw
// decides: their mean plus six standard deviations and 16. Every other
// component is counted before the draw.
func multiVectorReserve(cfg AttackConfig) int {
	p := min(max(cfg.DNSShare, 0), 1) * min(max(cfg.MultiVectorShare, 0), 1)
	n := float64(cfg.TotalAttacks)
	return int(n*p+6*math.Sqrt(n*p*(1-p))) + 16
}

// generateSchedule is GenerateSchedule with room for extra components
// beyond those counted before the draw; a draw that outgrows it grows
// the array.
func generateSchedule(cfg AttackConfig, w *World, extra int) *Schedule {
	rng := rand.New(rand.NewPCG(cfg.Seed, 0xa77ac))
	g := &schedGen{cfg: cfg, w: w, rng: rng}
	g.buildVictimPools()
	out := &Schedule{}
	var csSpecs []component
	if cfg.IncludeCaseStudies {
		out.CaseStudies, csSpecs, out.Blackouts = caseStudySpecs(w)
	}
	months := clock.StudyMonths()
	var wsum float64
	for _, mw := range monthWeights {
		wsum += mw
	}
	monthly := func(mi int) (n, reflections int) {
		n = int(float64(cfg.TotalAttacks) * monthWeights[mi%len(monthWeights)] / wsum)
		return n, int(float64(n) * cfg.ReflectionOnlyRatio)
	}
	// a random attack is one component before its multi-vector second, a
	// reflection-only or surge attack one
	count := extra
	if cfg.IncludeCaseStudies {
		count += len(csSpecs) + maxSurge
	}
	for mi := range months {
		n, nr := monthly(mi)
		count += n + nr
	}
	g.b.Reserve(count)
	for mi, m := range months {
		n, nr := monthly(mi)
		for i := 0; i < n; i++ {
			g.randomAttack(m)
		}
		for i := 0; i < nr; i++ {
			g.reflectionOnlyAttack(m)
		}
	}
	if cfg.IncludeCaseStudies {
		for _, c := range csSpecs {
			g.b.Add(c.Spec, c.ports...)
		}
		// §6.1: a surge of attacks against Russian providers in March
		// 2022 (Beeline hosting banking sites, and others)
		g.russianSurge()
	}
	out.Sched = g.b.Schedule()
	return out
}

type schedGen struct {
	cfg AttackConfig
	w   *World
	rng *rand.Rand

	dnsAddrs   []netx.Addr
	dnsWeights []float64 // cumulative
	ns24s      []netx.Prefix
	groupID    int32

	b     attacksim.Builder // the schedule, in draw order
	ports [7]uint16         // a random attack's port list as it is drawn
}

func (g *schedGen) buildVictimPools() {
	seen := make(map[netx.Prefix]struct{})
	var cum float64
	for addr := range g.w.DB.AllNSAddrs() {
		g.dnsAddrs = append(g.dnsAddrs, addr)
	}
	// deterministic order before weighting
	slices.Sort(g.dnsAddrs)
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

// pickDNSVictim draws an NS-recorded address by attack weight.
func (g *schedGen) pickDNSVictim() netx.Addr {
	u := g.rng.Float64() * g.dnsWeights[len(g.dnsWeights)-1]
	lo, hi := 0, len(g.dnsWeights)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if g.dnsWeights[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return g.dnsAddrs[lo]
}

// randomAttack appends one attack (possibly multi-component).
func (g *schedGen) randomAttack(m clock.Month) {
	g.groupID++
	start := g.startIn(m)
	end := start + int64(g.duration())
	pps := g.intensity()
	proto, ports := g.protoPorts()
	var victim netx.Addr
	isDNS := false
	switch u := g.rng.Float64(); {
	case u < g.cfg.DNSShare:
		victim = g.pickDNSVictim()
		isDNS = true
		// the very largest floods go after high-profile, heavily
		// provisioned targets (the Table 4/5 pattern: mega providers
		// absorb huge attacks with negligible effect) — which is also
		// why telescope intensity fails to predict impact (§6.4)
		if pps > 2.5e5 {
			for try := 0; try < 4; try++ {
				if ns, ok := g.w.DB.NameserverByAddr(victim); ok && ns.CapacityPPS >= 1e6 {
					break
				}
				victim = g.pickDNSVictim()
			}
		}
	case u < g.cfg.DNSShare+g.cfg.Slash24Share && len(g.ns24s) > 0:
		// a non-NS host in a nameserver /24
		p := g.ns24s[g.rng.IntN(len(g.ns24s))]
		victim = p.Nth(uint64(1 + g.rng.IntN(8)))
		if _, isNS := g.w.DB.NameserverByAddr(victim); isNS {
			victim = p.Nth(250)
		}
	default:
		victim = g.w.OtherSpace.RandomAddr(g.rng)
	}
	bytes := uint16(60)
	if proto == packet.ProtoUDP {
		bytes = uint16(120 + g.rng.IntN(400))
	}
	g.b.Add(attacksim.Spec{
		GroupID:     g.groupID,
		Target:      victim,
		Vector:      attacksim.VectorRandomSpoofed,
		Proto:       proto,
		Start:       start,
		End:         end,
		PPS:         pps,
		PacketBytes: bytes,
	}, ports...)
	if isDNS && g.rng.Float64() < g.cfg.MultiVectorShare {
		// an invisible component whose magnitude is drawn
		// independently of the visible one — the §6.4 reason telescope
		// intensity and impact decorrelate
		g.b.Add(attacksim.Spec{
			GroupID:     g.groupID,
			Target:      victim,
			Vector:      attacksim.VectorReflection,
			Proto:       packet.ProtoUDP,
			Start:       start,
			End:         end,
			PPS:         2 * g.intensity() * math.Exp(g.rng.NormFloat64()*0.8),
			PacketBytes: 512,
		}, 53)
	}
}

// russianSurge generates the March-2022 wave of attacks on Russian
// infrastructure the paper documents (§6.1: "several attacks against a
// Russian DNS provider, Beeline, during March 2022"), appended.
func (g *schedGen) russianSurge() {
	targets := g.russianNS()
	if len(targets) == 0 {
		return
	}
	march := clock.Month{Year: 2022, Month: time.March}
	n := 8 + g.rng.IntN(8)
	for i := 0; i < n; i++ {
		g.groupID++
		start := g.startIn(march)
		g.b.Add(attacksim.Spec{
			GroupID:     g.groupID,
			Target:      targets[g.rng.IntN(len(targets))],
			Vector:      attacksim.VectorRandomSpoofed,
			Proto:       packet.ProtoTCP,
			Start:       start,
			End:         start + int64(g.duration()),
			PPS:         g.intensity(),
			PacketBytes: 60,
		}, 53)
	}
}

// maxSurge bounds russianSurge's 8 + IntN(8) attacks.
const maxSurge = 15

// russianNS lists the nameserver addresses of RU-country providers.
func (g *schedGen) russianNS() []netx.Addr {
	var out []netx.Addr
	for _, ns := range g.w.DB.Nameservers {
		if g.w.DB.Providers[ns.Provider].Country == "RU" {
			out = append(out, ns.Addr)
		}
	}
	slices.Sort(out)
	return out
}

// reflectionOnlyAttack appends a pure amplification attack: no spoofed
// component, so the telescope never sees it — only AmpPot-style honeypots
// do (§2.1).
func (g *schedGen) reflectionOnlyAttack(m clock.Month) {
	g.groupID++
	start := g.startIn(m)
	victim := g.w.OtherSpace.RandomAddr(g.rng)
	if g.rng.Float64() < g.cfg.DNSShare {
		victim = g.pickDNSVictim()
	}
	g.b.Add(attacksim.Spec{
		GroupID:     g.groupID,
		Target:      victim,
		Vector:      attacksim.VectorReflection,
		Proto:       packet.ProtoUDP,
		Start:       start,
		End:         start + int64(g.duration()),
		PPS:         g.intensity(),
		PacketBytes: 512,
	}, 53)
}

// startIn draws a start in month m, on a minute, in Unix nanoseconds.
func (g *schedGen) startIn(m clock.Month) int64 {
	from := m.Start()
	span := m.Next().Start().Sub(from)
	return from.Add(time.Duration(g.rng.Int64N(int64(span)))).Truncate(time.Minute).UnixNano()
}

// duration draws the §6.5 bimodal attack duration: modes at ~15 min and
// ~1 h, plus a long tail.
func (g *schedGen) duration() time.Duration {
	switch u := g.rng.Float64(); {
	case u < 0.45:
		d := 5 + g.rng.ExpFloat64()*10
		if d > 45 {
			d = 45
		}
		return time.Duration(d * float64(time.Minute))
	case u < 0.80:
		d := 60 + g.rng.NormFloat64()*9
		if d < 30 {
			d = 30
		}
		return time.Duration(d * float64(time.Minute))
	case u < 0.97:
		return time.Duration((2 + g.rng.Float64()*4) * float64(time.Hour))
	default:
		return time.Duration((6 + g.rng.Float64()*14) * float64(time.Hour))
	}
}

// intensity draws the victim-side packet rate. The resulting telescope PPM
// distribution is bimodal around ≈50 and ≈6000 ppm (§6.4): 50 ppm at the
// telescope ≈ 284 pps victim-side, 6000 ppm ≈ 34 kpps.
func (g *schedGen) intensity() float64 {
	switch u := g.rng.Float64(); {
	case u < 0.50:
		return 284 * math.Exp(g.rng.NormFloat64()*0.35)
	case u < 0.91:
		return 34000 * math.Exp(g.rng.NormFloat64()*0.40)
	default:
		return 3e5 * math.Exp(g.rng.NormFloat64()*1.3)
	}
}

// protoPorts draws the Figure 6 protocol/port mix. The ports are drawn
// into g.ports, valid until the next draw.
func (g *schedGen) protoPorts() (packet.Protocol, []uint16) {
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
		// UDP
		if g.rng.Float64() < 1.0/3 {
			return 53
		}
		return uint16(1 + g.rng.IntN(65000))
	}
	n := 1
	if !single {
		n = 2 + g.rng.IntN(6)
	}
	ports := g.ports[:0]
	for len(ports) < n {
		if p := port(); !slices.Contains(ports, p) {
			ports = append(ports, p)
		}
	}
	return proto, ports
}
