package reactive

import (
	"math/rand/v2"
	"testing"
	"time"

	"dnsddos/internal/clock"
	"dnsddos/internal/dnsdb"
	"dnsddos/internal/netx"
	"dnsddos/internal/nsset"
	"dnsddos/internal/resolver"
	"dnsddos/internal/rsdos"
)

// downTransport fails every query against the listed nameservers inside
// [from, to), and answers quickly otherwise.
type downTransport struct {
	down     map[dnsdb.NameserverID]bool
	from, to time.Time
}

func (d *downTransport) Query(_ *rand.Rand, id dnsdb.NameserverID, t time.Time) (nsset.QueryStatus, time.Duration) {
	if d.down[id] && !t.Before(d.from) && t.Before(d.to) {
		return nsset.StatusTimeout, 0
	}
	return nsset.StatusOK, 10 * time.Millisecond
}

func reactiveWorld(t *testing.T, domains int) (*dnsdb.DB, []dnsdb.NameserverID) {
	t.Helper()
	db := dnsdb.New()
	pid := db.AddProvider(dnsdb.Provider{Name: "P"})
	var ids []dnsdb.NameserverID
	for i := 0; i < 3; i++ {
		id, err := db.AddNameserver(dnsdb.Nameserver{
			Addr: netx.Addr(0x0a010001 + i), Provider: pid, BaseRTT: 10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for i := 0; i < domains; i++ {
		db.AddDomain(dnsdb.Domain{Name: "d.example", NS: ids})
	}
	db.Freeze()
	return db, ids
}

func mkAttack(victim netx.Addr, startW, endW clock.Window) rsdos.Attack {
	return rsdos.Attack{ID: 1, Victim: victim, StartWindow: startW, EndWindow: endW}
}

func newTestPlatform(db *dnsdb.DB, tr resolver.Transport, cfg Config) *Platform {
	res := resolver.New(resolver.DefaultConfig(), db, tr)
	return NewPlatform(cfg, db, res, rand.New(rand.NewPCG(1, 1)))
}

func TestCampaignShape(t *testing.T) {
	db, ids := reactiveWorld(t, 120)
	tr := &downTransport{}
	cfg := DefaultConfig()
	cfg.Tail = time.Hour // shorter campaign for the test
	p := newTestPlatform(db, tr, cfg)
	attack := mkAttack(db.Nameservers[ids[0]].Addr, 1000, 1011) // 1 hour
	c := p.React(attack)

	if len(c.Domains) != cfg.MaxDomains {
		t.Errorf("sampled %d domains, want %d", len(c.Domains), cfg.MaxDomains)
	}
	delay := c.Triggered.Sub(attack.Start())
	if delay < 0 || delay > cfg.MaxTriggerDelay {
		t.Errorf("trigger delay = %v", delay)
	}
	// each round: 50 domains × 3 NS probes; rounds run every 5 minutes
	// from trigger until end+tail (the last partial interval still
	// probes, hence the ceiling)
	span := attack.End().Add(cfg.Tail).Sub(c.Triggered)
	rounds := int((span + cfg.Round - 1) / cfg.Round)
	want := rounds * cfg.MaxDomains * 3
	if len(c.Probes) != want {
		t.Errorf("probes = %d, want %d", len(c.Probes), want)
	}
	// all probes exhaustive: every NS appears
	perNS := map[dnsdb.NameserverID]int{}
	for _, pr := range c.Probes {
		perNS[pr.NS]++
	}
	if len(perNS) != 3 {
		t.Errorf("probed %d NSs, want 3", len(perNS))
	}
}

func TestProbesSpreadEvenly(t *testing.T) {
	db, ids := reactiveWorld(t, 100)
	cfg := DefaultConfig()
	cfg.Tail = 0
	p := newTestPlatform(db, &downTransport{}, cfg)
	attack := mkAttack(db.Nameservers[ids[0]].Addr, 1000, 1002)
	c := p.React(attack)
	// the 50 domains of one round spread over 5 minutes ≈ one domain
	// every 6 seconds (§8 ethics)
	var times []time.Time
	seen := map[time.Time]bool{}
	for _, pr := range c.Probes {
		if !seen[pr.Time] {
			seen[pr.Time] = true
			times = append(times, pr.Time)
		}
	}
	if len(times) < 50 {
		t.Fatalf("distinct probe times = %d", len(times))
	}
	gap := times[1].Sub(times[0])
	if gap != 6*time.Second {
		t.Errorf("probe spacing = %v, want 6s for 50 domains / 5 min", gap)
	}
}

func TestSampleCapsAtMaxDomains(t *testing.T) {
	db, ids := reactiveWorld(t, 10) // fewer than MaxDomains
	cfg := DefaultConfig()
	cfg.Tail = 0
	p := newTestPlatform(db, &downTransport{}, cfg)
	c := p.React(mkAttack(db.Nameservers[ids[0]].Addr, 1000, 1001))
	if len(c.Domains) != 10 {
		t.Errorf("domains = %d, want all 10", len(c.Domains))
	}
}

func TestUnknownVictimNoCampaign(t *testing.T) {
	db, _ := reactiveWorld(t, 10)
	p := newTestPlatform(db, &downTransport{}, DefaultConfig())
	c := p.React(mkAttack(netx.MustParseAddr("203.0.113.1"), 1000, 1001))
	if len(c.Domains) != 0 || len(c.Probes) != 0 {
		t.Error("unknown victim should produce an empty campaign")
	}
}

func TestAvailabilityAndRecovery(t *testing.T) {
	db, ids := reactiveWorld(t, 60)
	attack := mkAttack(db.Nameservers[ids[0]].Addr, 1000, 1011)
	// all three nameservers down during the attack, recovering at end
	tr := &downTransport{
		down: map[dnsdb.NameserverID]bool{ids[0]: true, ids[1]: true, ids[2]: true},
		from: attack.Start(), to: attack.End(),
	}
	cfg := DefaultConfig()
	cfg.Tail = 2 * time.Hour
	p := newTestPlatform(db, tr, cfg)
	c := p.React(attack)

	if !c.UnresolvableDuringAttack() {
		t.Error("domain should be unresolvable during the attack")
	}
	rec, ok := c.RecoveryTime(0.9)
	if !ok {
		t.Fatal("should recover after the attack")
	}
	if rec.Before(attack.End()) || rec.After(attack.End().Add(10*time.Minute)) {
		t.Errorf("recovery at %v, attack ended %v", rec, attack.End())
	}
	avail := c.Availability()
	if len(avail) == 0 {
		t.Fatal("no availability windows")
	}
	for _, wa := range avail {
		inAttack := !wa.Window.Start().Before(attack.Start()) && wa.Window.Start().Before(attack.End())
		if inAttack && wa.Rate() > 0 {
			t.Errorf("window %v availability %v during total outage", wa.Window, wa.Rate())
		}
		if !inAttack && wa.Window.Start().After(attack.End()) && wa.Rate() < 1 {
			t.Errorf("window %v availability %v after recovery", wa.Window, wa.Rate())
		}
	}
}

func TestPartialOutagePerNSAttribution(t *testing.T) {
	db, ids := reactiveWorld(t, 60)
	attack := mkAttack(db.Nameservers[ids[0]].Addr, 1000, 1011)
	tr := &downTransport{
		down: map[dnsdb.NameserverID]bool{ids[0]: true}, // only NS 0 down
		from: attack.Start(), to: attack.End(),
	}
	cfg := DefaultConfig()
	cfg.Tail = 0
	p := newTestPlatform(db, tr, cfg)
	c := p.React(attack)
	for _, wa := range c.Availability() {
		if wa.Window.Start().Before(attack.Start()) {
			continue
		}
		ok0 := wa.PerNS[ids[0]]
		ok1 := wa.PerNS[ids[1]]
		if ok0[0] != 0 {
			t.Errorf("NS0 answered %d probes while down", ok0[0])
		}
		if ok1[1] > 0 && ok1[0] != ok1[1] {
			t.Errorf("NS1 availability %d/%d, want full", ok1[0], ok1[1])
		}
		break
	}
}

// TestWatcherDeduplicates: Platform.Watch launches one campaign for a
// duplicated feed entry, and distinct attacks keep feed order.
func TestWatcherDeduplicates(t *testing.T) {
	db, ids := reactiveWorld(t, 20)
	cfg := DefaultConfig()
	cfg.Tail = 0
	p := newTestPlatform(db, &downTransport{}, cfg)
	a := mkAttack(db.Nameservers[ids[0]].Addr, 1000, 1002)
	if n := len(p.Watch([]rsdos.Attack{a, a})); n != 1 {
		t.Errorf("campaigns = %d, want 1 after dedup", n)
	}

	// a later attack first in the feed, then an earlier one on another
	// victim, then the first again: two campaigns, in feed order
	b := mkAttack(db.Nameservers[ids[1]].Addr, 900, 901)
	got := p.Watch([]rsdos.Attack{a, b, a})
	if len(got) != 2 {
		t.Fatalf("campaigns = %d, want 2", len(got))
	}
	if got[0].Attack.StartWindow != a.StartWindow || got[1].Attack.StartWindow != b.StartWindow {
		t.Errorf("campaigns start at windows %v, %v; want %v, %v (feed order)",
			got[0].Attack.StartWindow, got[1].Attack.StartWindow, a.StartWindow, b.StartWindow)
	}
}
