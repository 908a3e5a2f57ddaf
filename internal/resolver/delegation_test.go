package resolver

import (
	"math/rand/v2"
	"testing"
	"time"

	"dnsddos/internal/dnsdb"
	"dnsddos/internal/netx"
	"dnsddos/internal/nsset"
)

// delegationDB builds a world with three healthy child nameservers plus one
// lame server (another provider's) that a stale parent delegation lists.
func delegationDB(t *testing.T) (*dnsdb.DB, dnsdb.DomainID, dnsdb.NameserverID) {
	t.Helper()
	db := dnsdb.New()
	pid := db.AddProvider(dnsdb.Provider{Name: "Current"})
	old := db.AddProvider(dnsdb.Provider{Name: "Previous"})
	var child []dnsdb.NameserverID
	for i := 0; i < 3; i++ {
		id, err := db.AddNameserver(dnsdb.Nameserver{
			Addr: netx.Addr(0x0c000001 + i*256), Provider: pid, BaseRTT: 5 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		child = append(child, id)
	}
	lame, err := db.AddNameserver(dnsdb.Nameserver{
		Addr: netx.MustParseAddr("203.0.113.99"), Provider: old, BaseRTT: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	parent := []dnsdb.NameserverID{child[0], child[1], lame}
	did := db.AddDomain(dnsdb.Domain{Name: "stale.example", NS: child}, parent...)
	db.Freeze()
	return db, did, lame
}

func TestLameDelegationBurnsATryButResolves(t *testing.T) {
	db, did, lame := delegationDB(t)
	tr := &fakeTransport{outcomes: map[dnsdb.NameserverID]func() (nsset.QueryStatus, time.Duration){}}
	cfg := DefaultConfig()
	cfg.MaxTries = 4
	r := New(cfg, db, tr)
	rng := rand.New(rand.NewPCG(1, 1))
	var lameFirst, resolved int
	for i := 0; i < 400; i++ {
		tr.calls = nil
		o := r.Resolve(rng, did, time.Now())
		if o.Status == nsset.StatusOK {
			resolved++
			if o.NS == lame {
				t.Fatal("resolution must never conclude at the lame server")
			}
		}
		if len(tr.calls) > 0 && tr.calls[0] == lame {
			lameFirst++
			// when the lame server was hit first, the resolver burned
			// its answer and retried: at least two tries
			if o.Tries < 2 && o.Status == nsset.StatusOK {
				t.Fatalf("lame-first resolution took %d tries", o.Tries)
			}
		}
	}
	if resolved != 400 {
		t.Errorf("resolved %d/400 — healthy child servers exist", resolved)
	}
	// the parent delegation lists the lame server among 3, so it should
	// be contacted first roughly a third of the time
	if lameFirst < 80 || lameFirst > 190 {
		t.Errorf("lame server contacted first %d/400 times, want ≈133", lameFirst)
	}
}

func TestDelegationDisabledUsesChildOnly(t *testing.T) {
	db, did, lame := delegationDB(t)
	tr := &fakeTransport{outcomes: map[dnsdb.NameserverID]func() (nsset.QueryStatus, time.Duration){}}
	cfg := DefaultConfig()
	cfg.FollowDelegation = false
	r := New(cfg, db, tr)
	rng := rand.New(rand.NewPCG(2, 2))
	for i := 0; i < 200; i++ {
		tr.calls = nil
		r.Resolve(rng, did, time.Now())
		for _, id := range tr.calls {
			if id == lame {
				t.Fatal("child-only resolution must not contact the lame server")
			}
		}
	}
}

func TestChildServerMissingFromParentStillReached(t *testing.T) {
	// the parent omits child[2]; when the listed servers fail, the
	// resolver must still find the zone's own server
	db, did, _ := delegationDB(t)
	tr := &fakeTransport{outcomes: map[dnsdb.NameserverID]func() (nsset.QueryStatus, time.Duration){
		0: fail(nsset.StatusTimeout),
		1: fail(nsset.StatusTimeout),
		3: fail(nsset.StatusTimeout), // the lame one times out too
	}}
	cfg := DefaultConfig()
	cfg.MaxTries = 4
	r := New(cfg, db, tr)
	rng := rand.New(rand.NewPCG(3, 3))
	o := r.Resolve(rng, did, time.Now())
	if o.Status != nsset.StatusOK || o.NS != 2 {
		t.Errorf("outcome = %+v, want success via child-only server 2", o)
	}
}

func TestConsistentDomainUnaffected(t *testing.T) {
	db := dnsdb.New()
	pid := db.AddProvider(dnsdb.Provider{Name: "P"})
	var ids []dnsdb.NameserverID
	for i := 0; i < 2; i++ {
		id, _ := db.AddNameserver(dnsdb.Nameserver{Addr: netx.Addr(0x0d000001 + i), Provider: pid, BaseRTT: time.Millisecond})
		ids = append(ids, id)
	}
	// a parent list equal to NS collapses to consistent
	did := db.AddDomain(dnsdb.Domain{Name: "ok.example", NS: ids}, ids[1], ids[0])
	db.Freeze()
	if db.Inconsistent(did) {
		t.Fatal("identical parent set should collapse to consistent")
	}
	tr := &fakeTransport{outcomes: map[dnsdb.NameserverID]func() (nsset.QueryStatus, time.Duration){}}
	r := New(DefaultConfig(), db, tr)
	if o := r.Resolve(rand.New(rand.NewPCG(4, 4)), did, time.Now()); o.Status != nsset.StatusOK || o.Tries != 1 {
		t.Errorf("outcome = %+v", o)
	}
}
