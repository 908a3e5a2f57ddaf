package cache

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
	"dnsddos/internal/resolver"
	"dnsddos/internal/simnet"
)

var t0 = time.Date(2021, 5, 1, 12, 0, 0, 0, time.UTC)

func TestCacheGetPutTTL(t *testing.T) {
	c := New(10)
	c.Put(Entry{Domain: 1, Expires: t0.Add(time.Minute)})
	if _, ok := c.Get(1, t0); !ok {
		t.Error("fresh entry should hit")
	}
	if _, ok := c.Get(1, t0.Add(time.Minute)); ok {
		t.Error("expiry is exclusive: entry at its Expires time is stale")
	}
	if _, ok := c.Get(2, t0); ok {
		t.Error("absent entry should miss")
	}
	hits, misses, _ := c.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("stats = %d hits, %d misses", hits, misses)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := New(2)
	c.Put(Entry{Domain: 1, Expires: t0.Add(time.Hour)})
	c.Put(Entry{Domain: 2, Expires: t0.Add(time.Hour)})
	// touch 1 so 2 is the LRU
	if _, ok := c.Get(1, t0); !ok {
		t.Fatal("warm entry missing")
	}
	c.Put(Entry{Domain: 3, Expires: t0.Add(time.Hour)})
	if _, ok := c.Get(2, t0); ok {
		t.Error("LRU entry should have been evicted")
	}
	if _, ok := c.Get(1, t0); !ok {
		t.Error("recently used entry should survive")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestCachePutUpdatesInPlace(t *testing.T) {
	c := New(2)
	c.Put(Entry{Domain: 1, Expires: t0.Add(time.Minute)})
	c.Put(Entry{Domain: 1, Expires: t0.Add(time.Hour)})
	if c.Len() != 1 {
		t.Errorf("Len = %d after update", c.Len())
	}
	if e, ok := c.Get(1, t0.Add(30*time.Minute)); !ok || e.Expires != t0.Add(time.Hour) {
		t.Error("update should extend TTL")
	}
}

// cacheWorld builds a small world with one vulnerable NSSet and an attack
// that makes it unresolvable for an hour.
func cacheWorld(t *testing.T) (*dnsdb.DB, *resolver.Resolver, time.Time) {
	t.Helper()
	db := dnsdb.New()
	pid := db.AddProvider(dnsdb.Provider{Name: "P"})
	var ids []dnsdb.NameserverID
	for i := 0; i < 2; i++ {
		id, err := db.AddNameserver(dnsdb.Nameserver{
			Addr: netx.Addr(0x0b000001 + i*256), Provider: pid,
			CapacityPPS: 1e4, BaseRTT: 10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i := 0; i < 50; i++ {
		db.AddDomain(dnsdb.Domain{Name: "d.example", NS: ids})
	}
	db.Freeze()
	attackStart := clock.StudyStart.Add(30 * 24 * time.Hour)
	var attacks attacksim.Builder
	for _, id := range ids {
		attacks.Add(attacksim.Spec{
			Target: db.Nameservers[id].Addr, Vector: attacksim.VectorRandomSpoofed, Proto: packet.ProtoTCP,
			Start: attackStart.UnixNano(), End: attackStart.Add(time.Hour).UnixNano(), PPS: 2e5,
		}, 53)
	}
	net := simnet.New(simnet.DefaultParams(), db, attacks.Schedule())
	return db, resolver.New(resolver.DefaultConfig(), db, net), attackStart
}

func TestWarmCacheSurvivesAttack(t *testing.T) {
	db, res, attackStart := cacheWorld(t)
	rng := rand.New(rand.NewPCG(1, 1))
	warm := NewResolver(res, 0, 2*time.Hour)
	// populate the cache before the attack
	for d := range db.Domains {
		o := warm.Resolve(rng, dnsdb.DomainID(d), attackStart.Add(-30*time.Minute))
		if o.Status != nsset.StatusOK {
			t.Fatalf("pre-attack resolution failed: %+v", o)
		}
	}
	// during the attack: warm cache answers everything, cold cache fails
	cold := NewResolver(res, 0, 2*time.Hour)
	var warmFails, coldFails, warmHits int
	during := attackStart.Add(30 * time.Minute)
	for d := range db.Domains {
		if o := warm.Resolve(rng, dnsdb.DomainID(d), during); o.Status != nsset.StatusOK {
			warmFails++
		} else if o.CacheHit {
			warmHits++
		}
		if o := cold.Resolve(rng, dnsdb.DomainID(d), during); o.Status != nsset.StatusOK {
			coldFails++
		}
	}
	if warmFails != 0 || warmHits != len(db.Domains) {
		t.Errorf("warm cache: %d fails, %d hits", warmFails, warmHits)
	}
	if coldFails < len(db.Domains)/2 {
		t.Errorf("cold cache failed only %d/%d during a saturating attack", coldFails, len(db.Domains))
	}
}

func TestLowTTLErodesProtection(t *testing.T) {
	db, res, attackStart := cacheWorld(t)
	rng := rand.New(rand.NewPCG(2, 2))
	// CDN-style 60s TTL: cache is cold again by the time the attack
	// window is probed (§2.2)
	shortTTL := NewResolver(res, 0, time.Minute)
	for d := range db.Domains {
		shortTTL.Resolve(rng, dnsdb.DomainID(d), attackStart.Add(-30*time.Minute))
	}
	var fails int
	for d := range db.Domains {
		if o := shortTTL.Resolve(rng, dnsdb.DomainID(d), attackStart.Add(30*time.Minute)); o.Status != nsset.StatusOK {
			fails++
		}
	}
	if fails < len(db.Domains)/2 {
		t.Errorf("60s TTL still protected %d/%d resolutions", len(db.Domains)-fails, len(db.Domains))
	}
}

func TestServeStale(t *testing.T) {
	db, res, attackStart := cacheWorld(t)
	rng := rand.New(rand.NewPCG(3, 3))
	r := NewResolver(res, 0, time.Minute)
	r.ServeStale = true
	for d := range db.Domains {
		r.Resolve(rng, dnsdb.DomainID(d), attackStart.Add(-30*time.Minute))
	}
	var stale, fails int
	for d := range db.Domains {
		o := r.Resolve(rng, dnsdb.DomainID(d), attackStart.Add(30*time.Minute))
		if o.Status != nsset.StatusOK {
			fails++
		} else if o.Stale {
			stale++
		}
	}
	if fails != 0 {
		t.Errorf("serve-stale resolver failed %d resolutions", fails)
	}
	if stale == 0 {
		t.Error("no stale answers served during origin outage")
	}
	_, _, staleHits := r.Cache().Stats()
	if staleHits == 0 {
		t.Error("stale hits not counted")
	}
	// beyond the stale window, failures come back
	r2 := NewResolver(res, 0, time.Minute)
	r2.ServeStale = true
	r2.StaleWindow = time.Minute
	for d := range db.Domains {
		r2.Resolve(rng, dnsdb.DomainID(d), attackStart.Add(-30*time.Minute))
	}
	var fails2 int
	for d := range db.Domains {
		if o := r2.Resolve(rng, dnsdb.DomainID(d), attackStart.Add(30*time.Minute)); o.Status != nsset.StatusOK {
			fails2++
		}
	}
	if fails2 == 0 {
		t.Error("stale window expired; failures should reappear")
	}
}

func TestNegativeCaching(t *testing.T) {
	db, res, attackStart := cacheWorld(t)
	rng := rand.New(rand.NewPCG(9, 9))
	r := NewResolver(res, 0, time.Hour)
	r.EnableNegativeCaching(5 * time.Minute)
	during := attackStart.Add(30 * time.Minute)
	d := dnsdb.DomainID(0)
	// find a domain that fails at the origin during the attack
	var failed bool
	for i := range db.Domains {
		o := r.Resolve(rng, dnsdb.DomainID(i), during)
		if o.Status != nsset.StatusOK {
			d, failed = dnsdb.DomainID(i), true
			break
		}
	}
	if !failed {
		t.Skip("no origin failure; saturate harder")
	}
	// the repeat query is served from the negative cache with zero tries
	o := r.Resolve(rng, d, during.Add(time.Minute))
	if !o.CacheHit || o.Status == nsset.StatusOK || o.Tries != 0 {
		t.Errorf("repeat failure should come from negative cache: %+v", o)
	}
	if r.NegativeCache().Hits() == 0 {
		t.Error("negative hits not counted")
	}
	// after the negative TTL the origin is consulted again
	o2 := r.Resolve(rng, d, during.Add(10*time.Minute))
	if o2.CacheHit && o2.Status != nsset.StatusOK {
		t.Error("expired negative entry must not answer")
	}
}

func TestNegativeCacheTTL(t *testing.T) {
	nc := NewNegativeCache(time.Minute)
	nc.Put(3, nsset.StatusTimeout, t0)
	if _, ok := nc.Get(3, t0.Add(30*time.Second)); !ok {
		t.Error("fresh negative entry should hit")
	}
	if _, ok := nc.Get(3, t0.Add(time.Minute)); ok {
		t.Error("expired negative entry should miss")
	}
	if nc.Len() != 1 {
		t.Errorf("Len = %d", nc.Len())
	}
}
