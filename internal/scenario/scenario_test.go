package scenario

import (
	"math/rand/v2"
	"testing"
	"time"

	"dnsddos/internal/attacksim"
	"dnsddos/internal/clock"
	"dnsddos/internal/dnsdb"
	"dnsddos/internal/netx"
	"dnsddos/internal/packet"
	"dnsddos/internal/rsdos"
	"dnsddos/internal/stats"
	"dnsddos/internal/telescope"
)

func smallWorld(t *testing.T) *World {
	t.Helper()
	cfg := DefaultWorldConfig()
	cfg.Domains = 3000
	cfg.GenericProviders = 30
	return GenerateWorld(cfg)
}

func TestWorldDeterministic(t *testing.T) {
	cfg := DefaultWorldConfig()
	cfg.Domains = 500
	cfg.GenericProviders = 10
	a, b := GenerateWorld(cfg), GenerateWorld(cfg)
	if len(a.DB.Domains) != len(b.DB.Domains) || len(a.DB.Nameservers) != len(b.DB.Nameservers) {
		t.Fatal("world size differs across runs with the same seed")
	}
	for i := range a.DB.Nameservers {
		if a.DB.Nameservers[i].Addr != b.DB.Nameservers[i].Addr {
			t.Fatalf("nameserver %d addr differs", i)
		}
	}
	for i := range a.DB.Domains {
		if a.DB.Domains[i].Name != b.DB.Domains[i].Name {
			t.Fatalf("domain %d name differs", i)
		}
	}
}

func TestWorldInvariants(t *testing.T) {
	w := smallWorld(t)
	if len(w.DB.Domains) != w.Config.Domains {
		t.Errorf("domains = %d, want %d", len(w.DB.Domains), w.Config.Domains)
	}
	// every domain has at least one nameserver, every NS resolves back
	for _, d := range w.DB.Domains {
		if len(d.NS) == 0 {
			t.Fatalf("domain %s has no nameservers", d.Name)
		}
		for _, id := range d.NS {
			ns := w.DB.Nameservers[id]
			back, ok := w.DB.NameserverByAddr(ns.Addr)
			if !ok || back.ID != id {
				t.Fatalf("nameserver index broken for %s", ns.Addr)
			}
		}
	}
	// every nameserver has positive capacity and base RTT, and a valid
	// provider
	for _, ns := range w.DB.Nameservers {
		if ns.CapacityPPS <= 0 || ns.BaseRTT <= 0 {
			t.Fatalf("nameserver %s capacity/RTT unset", ns.Addr)
		}
		if int(ns.Provider) >= len(w.DB.Providers) {
			t.Fatalf("nameserver %s has invalid provider", ns.Addr)
		}
		if ns.Anycast && ns.Sites < 2 {
			t.Fatalf("anycast nameserver %s has %d sites", ns.Addr, ns.Sites)
		}
	}
	// nameservers don't collide with the telescope or the other-victim
	// space
	tel := telescope.NewUCSD()
	for _, ns := range w.DB.Nameservers {
		if tel.Contains(ns.Addr) {
			t.Fatalf("nameserver inside the darknet: %s", ns.Addr)
		}
		if w.OtherSpace.Contains(ns.Addr) {
			t.Fatalf("nameserver inside the other-victim space: %s", ns.Addr)
		}
	}
}

func TestNamedProvidersPresent(t *testing.T) {
	w := smallWorld(t)
	for _, name := range []string{"TransIP", "Cloudflare", "Google", "MilRu Hosting", "RZD Rail", "NForce B.V."} {
		if _, ok := w.Named[name]; !ok {
			t.Errorf("named provider %q missing", name)
		}
	}
	// TransIP's §5.1 deployment: 3 unicast NSs on 3 /24s, 1 ASN
	transip := groupNS(w, "TransIP")
	if len(transip) != 3 {
		t.Fatalf("TransIP has %d nameservers", len(transip))
	}
	p24 := map[netx.Prefix]bool{}
	for _, id := range transip {
		ns := w.DB.Nameservers[id]
		if ns.Anycast {
			t.Error("TransIP must be unicast")
		}
		p24[ns.Addr.Slash24()] = true
	}
	if len(p24) != 3 {
		t.Errorf("TransIP spans %d /24s, want 3", len(p24))
	}
	// mil.ru: 3 NSs in ONE /24 (§5.2.3)
	mil := groupNS(w, "MilRu Hosting")
	m24 := map[netx.Prefix]bool{}
	for _, id := range mil {
		m24[w.DB.Nameservers[id].Addr.Slash24()] = true
	}
	if len(mil) != 3 || len(m24) != 1 {
		t.Errorf("mil.ru: %d NSs in %d /24s, want 3 in 1", len(mil), len(m24))
	}
}

func TestOpenResolversRegistered(t *testing.T) {
	w := smallWorld(t)
	for _, ip := range []string{"8.8.8.8", "8.8.4.4", "1.1.1.1"} {
		a := netx.MustParseAddr(ip)
		ns, ok := w.DB.NameserverByAddr(a)
		if !ok {
			t.Errorf("open resolver %s not registered as NS target", ip)
			continue
		}
		if n := w.DB.NumDomainsOf(ns.ID); n == 0 {
			t.Errorf("no misconfigured domains delegate to %s", ip)
		}
		if !w.OpenRes.Contains(a) {
			t.Errorf("%s missing from the open-resolver list", ip)
		}
	}
}

func TestCaseStudyDomainsExist(t *testing.T) {
	w := smallWorld(t)
	names := map[string]bool{}
	for _, d := range w.DB.Domains {
		names[d.Name] = true
	}
	for _, n := range []string{"mil.ru", "rzd.ru"} {
		if !names[n] {
			t.Errorf("case-study domain %q missing", n)
		}
	}
}

func TestProviderSizesFollowShares(t *testing.T) {
	w := smallWorld(t)
	counts := map[dnsdb.ProviderID]int{}
	for i := range w.DB.Domains {
		d := &w.DB.Domains[i]
		counts[w.DB.Nameservers[d.NS[0]].Provider]++
	}
	transip := counts[w.Named["TransIP"]]
	frac := float64(transip) / float64(len(w.DB.Domains))
	// template share is 7%
	if frac < 0.05 || frac > 0.09 {
		t.Errorf("TransIP hosts %.1f%% of domains, want ≈7%%", frac*100)
	}
	cf := float64(counts[w.Named["Cloudflare"]]) / float64(len(w.DB.Domains))
	if cf < 0.09 || cf > 0.17 {
		t.Errorf("Cloudflare hosts %.1f%%, want ≈13%%", cf*100)
	}
}

func TestCensusCoversAnycastNS(t *testing.T) {
	w := smallWorld(t)
	snap := w.Census.Snapshots()[0]
	var anycastNS, detected int
	for _, ns := range w.DB.Nameservers {
		if ns.Anycast {
			anycastNS++
			if snap.IsAnycast(ns.Addr) {
				detected++
			}
		}
	}
	if anycastNS == 0 {
		t.Fatal("no anycast nameservers generated")
	}
	recall := float64(detected) / float64(anycastNS)
	if recall < 0.7 || recall > 1.0 {
		t.Errorf("census recall = %.2f, configured 0.9", recall)
	}
}

func TestTopoCoversNameservers(t *testing.T) {
	w := smallWorld(t)
	for _, ns := range w.DB.Nameservers {
		if _, ok := w.Topo.Lookup(ns.Addr); !ok {
			t.Fatalf("nameserver %s not covered by prefix-to-AS table", ns.Addr)
		}
	}
	// single-ASN invariant for TransIP (§5.1.1)
	asns := map[string]bool{}
	for _, id := range groupNS(w, "TransIP") {
		asn, _ := w.Topo.Lookup(w.DB.Nameservers[id].Addr)
		asns[asn.String()] = true
	}
	if len(asns) != 1 {
		t.Errorf("TransIP spans %d ASNs, want 1", len(asns))
	}
}

func TestScheduleShape(t *testing.T) {
	w := smallWorld(t)
	cfg := DefaultAttackConfig()
	cfg.TotalAttacks = 4000
	sched := GenerateSchedule(cfg, w)
	specs := sched.Sched.Specs()
	var spoofed, dns, invisible int
	nsAddrs := w.DB.AllNSAddrs()
	for _, s := range specs {
		if s.Vector == attacksim.VectorRandomSpoofed {
			spoofed++
			if _, ok := nsAddrs[s.Target]; ok {
				dns++
			}
		} else {
			invisible++
		}
		if s.End <= s.Start {
			t.Fatalf("spec with non-positive duration: %+v", s)
		}
		if s.Start < clock.StudyStart.UnixNano() || s.Start > clock.StudyEnd.UnixNano() {
			t.Fatalf("spec outside study window: %v", time.Unix(0, s.Start).UTC())
		}
		if s.PPS <= 0 {
			t.Fatalf("spec with no rate")
		}
	}
	if spoofed < 3500 {
		t.Errorf("spoofed specs = %d", spoofed)
	}
	share := float64(dns) / float64(spoofed)
	if share < 0.005 || share > 0.05 {
		t.Errorf("DNS share = %.4f", share)
	}
	if invisible == 0 {
		t.Error("no multi-vector components generated")
	}
}

func TestCaseStudySpecsScripted(t *testing.T) {
	w := smallWorld(t)
	sched := GenerateSchedule(DefaultAttackConfig(), w)
	cs := sched.CaseStudies
	if cs.TransIPDecStart != time.Date(2020, 11, 30, 22, 0, 0, 0, time.UTC) {
		t.Errorf("TransIP Dec start = %v", cs.TransIPDecStart)
	}
	if cs.RZDTelegram.Sub(cs.RZDStart) != 12*time.Minute {
		t.Errorf("Telegram delta = %v, want 12m (Fig. 4)", cs.RZDTelegram.Sub(cs.RZDStart))
	}
	if len(sched.Blackouts) != 1 {
		t.Fatalf("blackouts = %d, want 1 (mil.ru geofence)", len(sched.Blackouts))
	}
	b := sched.Blackouts[0]
	if !b.Prefix.Contains(cs.MilRuNS[0]) {
		t.Error("blackout must cover the mil.ru /24")
	}
	// the Dec attack on NS A carries the Table 2 pool
	var foundDecA bool
	for _, s := range sched.Sched.Specs() {
		if s.Target == cs.TransIPNS[0] && s.Start == cs.TransIPDecStart.UnixNano() && s.Vector == attacksim.VectorRandomSpoofed {
			foundDecA = true
			if s.PPS != 124000 || s.SpoofedSources != 5_790_000 {
				t.Errorf("Dec NS-A spec = pps %v pool %d", s.PPS, s.SpoofedSources)
			}
		}
	}
	if !foundDecA {
		t.Error("TransIP December spec for NS A missing")
	}
}

// scheduleOf builds the schedule of one spec, which targets ports.
func scheduleOf(s attacksim.Spec, ports ...uint16) *attacksim.Schedule {
	var b attacksim.Builder
	b.Add(s, ports...)
	return b.Schedule()
}

func TestSynthesizeObsStatistics(t *testing.T) {
	w := smallWorld(t)
	tel := telescope.NewUCSD()
	// a single scripted spec: 34 kpps for one hour against a mega NS
	target := w.DB.Nameservers[groupNS(w, "Cloudflare")[0]].Addr
	start := clock.StudyStart.Add(100 * 24 * time.Hour)
	spec := attacksim.Spec{
		Target: target, Vector: attacksim.VectorRandomSpoofed,
		Proto: packet.ProtoTCP,
		Start: start.UnixNano(), End: start.Add(time.Hour).UnixNano(), PPS: 34000,
	}
	sched := scheduleOf(spec, 53)
	obs := SynthesizeObs(DefaultSynthConfig(), w, sched, tel)
	if len(obs) != 12 {
		t.Fatalf("observations = %d, want 12 (one hour of windows)", len(obs))
	}
	var total int64
	for _, o := range obs {
		total += o.Packets
		if o.Victim != target || o.Proto != packet.ProtoTCP {
			t.Errorf("attribution: %+v", o)
		}
		if portN(o.Ports, 53) != o.Packets {
			t.Errorf("port split: %+v", o.Ports)
		}
		if o.Slash16 < 100 {
			t.Errorf("spread = %d for ≈30k packets/window", o.Slash16)
		}
	}
	// expected: 34000 pps × 3600 s × (1/341.3) ≈ 358k packets
	want := 34000.0 * 3600 * tel.Fraction()
	if float64(total) < want*0.95 || float64(total) > want*1.05 {
		t.Errorf("total telescope packets = %d, want ≈%.0f", total, want)
	}
	// the inference recovers the attack with the right timing
	attacks := rsdos.Infer(rsdos.DefaultConfig(), obs)
	if len(attacks) != 1 {
		t.Fatalf("inferred %d attacks", len(attacks))
	}
	if attacks[0].Start() != start || attacks[0].End() != start.Add(time.Hour) {
		t.Errorf("inferred interval = %v..%v", attacks[0].Start(), attacks[0].End())
	}
	// peak ppm ≈ 34000×60/341.3 ≈ 5978
	if attacks[0].PeakPPM < 5000 || attacks[0].PeakPPM > 7000 {
		t.Errorf("peak ppm = %v, want ≈6000", attacks[0].PeakPPM)
	}
}

func TestSynthesizeSuppressionUnderOverload(t *testing.T) {
	w := smallWorld(t)
	tel := telescope.NewUCSD()
	// an attack far beyond a small victim's response capacity produces
	// *less* backscatter than the raw rate implies (§6.5)
	victim := w.OtherSpace.Nth(12345)
	start := clock.StudyStart.Add(10 * 24 * time.Hour)
	spec := attacksim.Spec{
		Target: victim, Vector: attacksim.VectorRandomSpoofed,
		Proto: packet.ProtoTCP,
		Start: start.UnixNano(), End: start.Add(time.Hour).UnixNano(), PPS: 1e7,
	}
	obs := SynthesizeObs(DefaultSynthConfig(), w, scheduleOf(spec, 80), tel)
	var total int64
	for _, o := range obs {
		total += o.Packets
	}
	unsuppressed := 1e7 * 3600 * tel.Fraction()
	if float64(total) > unsuppressed/5 {
		t.Errorf("no suppression: %d packets vs raw %.0f", total, unsuppressed)
	}
}

func TestBoundedPoolCapsUniqueDsts(t *testing.T) {
	w := smallWorld(t)
	tel := telescope.NewUCSD()
	start := clock.StudyStart.Add(5 * 24 * time.Hour)
	spec := attacksim.Spec{
		Target: w.OtherSpace.Nth(7), Vector: attacksim.VectorRandomSpoofed,
		Proto: packet.ProtoTCP,
		Start: start.UnixNano(), End: start.Add(time.Hour).UnixNano(), PPS: 3e4,
		SpoofedSources: 341_000, // pool-in-telescope ≈ 1000
	}
	obs := SynthesizeObs(DefaultSynthConfig(), w, scheduleOf(spec, 80), tel)
	for _, o := range obs {
		if o.UniqueDsts > 1100 {
			t.Errorf("unique dsts %d exceed pool share ≈1000", o.UniqueDsts)
		}
	}
}

func TestNoiseRejectedByInference(t *testing.T) {
	tel := telescope.NewUCSD()
	cfg := DefaultNoiseConfig()
	cfg.Days = 30
	obs := SynthesizeNoise(cfg, tel)
	if len(obs) == 0 {
		t.Fatal("no noise generated")
	}
	attacks := rsdos.Infer(rsdos.DefaultConfig(), obs)
	// the /16-spread threshold should reject essentially all scanner and
	// misconfiguration traffic; allow a tiny residue
	if frac := float64(len(attacks)) / float64(cfg.Days*(cfg.ScannersPerDay+cfg.MisconfiguredPerDay)); frac > 0.01 {
		t.Errorf("noise produced %d inferred attacks (%.3f per source); thresholds should reject it", len(attacks), frac)
	}
}

func TestNoiseDoesNotPerturbAttackInference(t *testing.T) {
	w := smallWorld(t)
	tel := telescope.NewUCSD()
	acfg := DefaultAttackConfig()
	acfg.TotalAttacks = 1500
	sched := GenerateSchedule(acfg, w)
	attackObs := SynthesizeObs(DefaultSynthConfig(), w, sched.Sched, tel)
	ncfg := DefaultNoiseConfig()
	ncfg.Days = 0 // full window
	noise := SynthesizeNoise(ncfg, tel)

	clean := rsdos.Infer(rsdos.DefaultConfig(), attackObs)
	noisy := rsdos.Infer(rsdos.DefaultConfig(), append(append([]rsdos.WindowObs(nil), attackObs...), noise...))

	// count attacks whose victims are real schedule targets: unchanged
	targets := map[netx.Addr]bool{}
	for _, s := range sched.Sched.Specs() {
		targets[s.Target] = true
	}
	count := func(attacks []rsdos.Attack) int {
		n := 0
		for _, a := range attacks {
			if targets[a.Victim] {
				n++
			}
		}
		return n
	}
	if c, n := count(clean), count(noisy); c != n {
		t.Errorf("real-attack inference changed under noise: %d vs %d", c, n)
	}
	// and the noise adds at most a small contamination
	extra := len(noisy) - len(clean)
	if extra > len(clean)/20 {
		t.Errorf("noise added %d spurious attacks to %d real ones", extra, len(clean))
	}
}

// TestThinnedCountsArePoisson validates the flow-level synthesizer's core
// statistical claim: for a constant-rate attack, per-window telescope
// packet counts follow Poisson(pps × 300 × fraction), KS-indistinguishable
// from direct Poisson samples.
func TestThinnedCountsArePoisson(t *testing.T) {
	w := smallWorld(t)
	tel := telescope.NewUCSD()
	target := w.OtherSpace.Nth(4242)
	start := clock.StudyStart.Add(40 * 24 * time.Hour)
	const pps = 2000.0
	spec := attacksim.Spec{
		Target: target, Vector: attacksim.VectorRandomSpoofed,
		Proto: packet.ProtoTCP,
		Start: start.UnixNano(), End: start.Add(200 * time.Hour).UnixNano(), PPS: pps,
	}
	obs := SynthesizeObs(DefaultSynthConfig(), w, scheduleOf(spec, 80), tel)
	var counts []float64
	for _, o := range obs {
		counts = append(counts, float64(o.Packets))
	}
	if len(counts) < 2000 {
		t.Fatalf("windows = %d", len(counts))
	}
	lambda := pps * 300 * tel.Fraction()
	rng := rand.New(rand.NewPCG(77, 77))
	ref := make([]float64, len(counts))
	for i := range ref {
		ref[i] = float64(stats.Poisson(rng, lambda))
	}
	d := stats.KolmogorovSmirnov(counts, ref)
	if crit := stats.KSCritical(0.01, len(counts), len(ref)); d > 2*crit {
		t.Errorf("thinned counts diverge from Poisson(%.1f): KS = %v > %v", lambda, d, crit)
	}
}

// TestDurationBimodality: the generated DNS-attack durations show the §6.5
// modes near 15 and 60 minutes.
func TestDurationBimodality(t *testing.T) {
	w := smallWorld(t)
	cfg := DefaultAttackConfig()
	cfg.TotalAttacks = 20000
	cfg.IncludeCaseStudies = false
	sched := GenerateSchedule(cfg, w)
	h := stats.NewHistogram(0, 120, 24) // 5-minute bins
	for _, s := range sched.Sched.Specs() {
		if s.Vector == attacksim.VectorRandomSpoofed {
			h.Add(time.Duration(s.End - s.Start).Minutes())
		}
	}
	modes := h.Modes(h.N / 50)
	if len(modes) < 2 {
		t.Fatalf("modes = %v, want bimodal", modes)
	}
	near := func(m, target float64) bool { return m >= target-10 && m <= target+10 }
	var found15, found60 bool
	for _, m := range modes {
		if near(m, 15) {
			found15 = true
		}
		if near(m, 60) {
			found60 = true
		}
	}
	if !found15 || !found60 {
		t.Errorf("duration modes = %v, want peaks near 15 and 60 minutes", modes)
	}
}
