package cache

import (
	"testing"
	"time"

	"dnsddos/internal/attacksim"
	"dnsddos/internal/clock"
	"dnsddos/internal/dnsdb"
	"dnsddos/internal/netx"
	"dnsddos/internal/packet"
	"dnsddos/internal/resolver"
	"dnsddos/internal/simnet"
)

// populationWorld builds a 2000-domain provider whose nameservers are
// saturated for two hours — large enough that a Zipf query stream leaves
// the popularity tail cold in cache.
func populationWorld(t *testing.T) (*dnsdb.DB, *resolver.Resolver, time.Time) {
	t.Helper()
	db := dnsdb.New()
	pid := db.AddProvider(dnsdb.Provider{Name: "P"})
	var ids []dnsdb.NameserverID
	for i := 0; i < 2; i++ {
		id, err := db.AddNameserver(dnsdb.Nameserver{
			Addr: netx.Addr(0x0b100001 + i*256), Provider: pid,
			CapacityPPS: 1e4, BaseRTT: 10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i := 0; i < 6000; i++ {
		db.AddDomain(dnsdb.Domain{Name: "d.example", NS: ids})
	}
	db.Freeze()
	attackStart := clock.StudyStart.Add(60 * 24 * time.Hour)
	var attacks attacksim.Builder
	for _, id := range ids {
		attacks.Add(attacksim.Spec{
			Target: db.Nameservers[id].Addr, Vector: attacksim.VectorRandomSpoofed, Proto: packet.ProtoTCP,
			Start: attackStart.UnixNano(), End: attackStart.Add(2 * time.Hour).UnixNano(), PPS: 3e5,
		}, 53)
	}
	net := simnet.New(simnet.DefaultParams(), db, attacks.Schedule())
	return db, resolver.New(resolver.DefaultConfig(), db, net), attackStart
}

func TestPopularityProtectsDuringOutage(t *testing.T) {
	db, res, attackStart := populationWorld(t)
	cr := NewResolver(res, 0, time.Hour)
	var domains []dnsdb.DomainID
	for i := range db.Domains {
		domains = append(domains, dnsdb.DomainID(i))
	}
	cfg := DefaultPopulationConfig()
	cfg.QueryRate = 3
	// the cache shields a domain for its entry's residual TTL; for the
	// popularity gradient the TTL must outlive the observation window
	// at the head while the tail's query interval exceeds the TTL
	cfg.TTL = 2 * time.Hour
	outcomes := SimulatePopulation(cfg, cr,
		domains,
		attackStart.Add(-5*time.Hour), // warmup
		attackStart,                   // observe from attack start
		attackStart.Add(45*time.Minute))
	if len(outcomes) < 4 {
		t.Fatalf("outcomes = %+v", outcomes)
	}
	top := outcomes[0]
	bottomHalf := outcomes[len(outcomes)/2:]
	var bq, bf int
	for _, o := range bottomHalf {
		bq += o.Queries
		bf += o.Failures
	}
	if bq == 0 {
		t.Fatal("no unpopular-domain queries observed")
	}
	bottomRate := float64(bf) / float64(bq)
	// §6.3.1: warm cache entries shield the popular decile; the
	// unpopular tail feels the outage almost fully
	if top.FailureRate() >= bottomRate-0.15 {
		t.Errorf("top decile failure %.2f should be clearly below unpopular tail %.2f",
			top.FailureRate(), bottomRate)
	}
	if top.CacheHitRate < 0.3 {
		t.Errorf("top decile cache hit rate = %.2f, want substantial", top.CacheHitRate)
	}
	if bottomRate < 0.5 {
		t.Errorf("unpopular tail failure rate = %.2f, want substantial during a saturating attack", bottomRate)
	}
}

func TestSimulatePopulationEdgeCases(t *testing.T) {
	_, res, _ := populationWorld(t)
	cr := NewResolver(res, 0, time.Hour)
	if out := SimulatePopulation(DefaultPopulationConfig(), cr, nil, t0, t0, t0.Add(time.Hour)); out != nil {
		t.Error("no domains should give no outcomes")
	}
	if out := SimulatePopulation(DefaultPopulationConfig(), cr, []dnsdb.DomainID{0}, t0, t0, t0); out != nil {
		t.Error("empty interval should give no outcomes")
	}
}
