package reactive

import (
	"math/rand/v2"
	"testing"
	"time"

	"dnsddos/internal/attacksim"
	"dnsddos/internal/clock"
	"dnsddos/internal/dnsdb"
	"dnsddos/internal/netx"
	"dnsddos/internal/packet"
	"dnsddos/internal/resolver"
	"dnsddos/internal/rsdos"
	"dnsddos/internal/simnet"
)

// anycastOutageWorld builds one anycast nameserver under a flood that
// saturates hot sites while cold ones survive.
func anycastOutageWorld(t *testing.T) (*dnsdb.DB, *simnet.Net, rsdos.Attack) {
	t.Helper()
	db := dnsdb.New()
	pid := db.AddProvider(dnsdb.Provider{Name: "Regional"})
	id, err := db.AddNameserver(dnsdb.Nameserver{
		Host: "ns1.regional.example", Addr: netx.Addr(0x53000001), Provider: pid,
		Anycast: true, Sites: 16, CapacityPPS: 5e4, BaseRTT: 8 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 80; i++ {
		db.AddDomain(dnsdb.Domain{Name: "r.example", NS: []dnsdb.NameserverID{id}})
	}
	db.Freeze()
	start := clock.StudyStart.Add(100 * 24 * time.Hour)
	spec := attacksim.Spec{
		Target: db.Nameservers[id].Addr, Vector: attacksim.VectorRandomSpoofed, Proto: packet.ProtoTCP,
		Start: start.UnixNano(), End: start.Add(time.Hour).UnixNano(), PPS: 1.5e6,
	}
	var attacks attacksim.Builder
	attacks.Add(spec, 53)
	net := simnet.New(simnet.DefaultParams(), db, attacks.Schedule())
	attack := rsdos.Attack{
		ID: 1, Victim: spec.Target,
		StartWindow: clock.WindowOfUnixNano(spec.Start),
		EndWindow:   clock.WindowOfUnixNano(spec.End) - 1,
	}
	return db, net, attack
}

func TestMultiVantageCampaigns(t *testing.T) {
	db, net, attack := anycastOutageWorld(t)
	cfg := DefaultConfig()
	cfg.Tail = 0
	vp := NewVantagePlatform(cfg, db, net, resolver.DefaultConfig(), StandardVantages(), rand.New(rand.NewPCG(1, 1)))
	campaigns := vp.React(attack)
	if len(campaigns) != 4 {
		t.Fatalf("campaigns = %d, want one per vantage", len(campaigns))
	}
	for _, vc := range campaigns {
		if len(vc.Campaign.Probes) == 0 {
			t.Fatalf("vantage %s made no probes", vc.Vantage.Name)
		}
	}
}

func TestDisagreementsRevealCatchment(t *testing.T) {
	db, net, attack := anycastOutageWorld(t)
	cfg := DefaultConfig()
	cfg.Tail = 0
	// many vantages to guarantee hot and cold catchments are both hit
	var vantages []simnet.Vantage
	for seed := uint64(0); seed < 10; seed++ {
		vantages = append(vantages, simnet.Vantage{Name: "v", RTTScale: 1, CatchmentSeed: seed})
	}
	vp := NewVantagePlatform(cfg, db, net, resolver.DefaultConfig(), vantages, rand.New(rand.NewPCG(2, 2)))
	campaigns := vp.React(attack)
	dis := Disagreements(campaigns)
	if len(dis) == 0 {
		t.Fatal("no disagreement windows")
	}
	var maxSpread float64
	for _, d := range dis {
		if spread := d.Max - d.Min; spread > maxSpread {
			maxSpread = spread
		}
	}
	if maxSpread < 0.3 {
		t.Errorf("max availability spread across vantages = %.2f; catchment should split views", maxSpread)
	}
}

func TestDefaultVantageFallback(t *testing.T) {
	db, net, attack := anycastOutageWorld(t)
	cfg := DefaultConfig()
	cfg.Tail = 0
	vp := NewVantagePlatform(cfg, db, net, resolver.DefaultConfig(), nil, rand.New(rand.NewPCG(3, 3)))
	campaigns := vp.React(attack)
	if len(campaigns) != 1 || campaigns[0].Vantage.Name != "nl-ams" {
		t.Errorf("fallback should be the single NL vantage, got %d campaigns", len(campaigns))
	}
}
