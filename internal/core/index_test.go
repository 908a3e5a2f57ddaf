package core_test

import (
	"context"
	"testing"
	"time"

	"dnsddos/internal/core"
	"dnsddos/internal/dnsdb"
	"dnsddos/internal/netx"
	"dnsddos/internal/nsset"
	"dnsddos/internal/study"
)

// TestNSIndexMatchesReference holds the flat nameserver index to the
// map-based reference (index_ref_test.go): the index a session builds
// over its engine's NSSet table, which every pipeline of the session
// joins over, and the one a pipeline without it builds from the DB. The
// worlds are internal/study's metricsConfig and benchmarkScaleConfig
// (no generated world has a nameserver address in three NSSets) and a
// hand-built one in which one address is in four, interned in an order
// that is not their key order.
func TestNSIndexMatchesReference(t *testing.T) {
	metrics := study.QuickConfig()
	metrics.World.Domains = 1500
	metrics.Attacks.TotalAttacks = 1500
	metrics.FromDay, metrics.ToDay = 27, 29
	bench := study.DefaultConfig()
	bench.World.Domains = 12000
	bench.World.GenericProviders = 60
	bench.Attacks.Seed = 7
	bench.Attacks.TotalAttacks = 6000
	bench.FromDay, bench.ToDay = 0, 149
	for _, tc := range []struct {
		name string
		cfg  study.Config
	}{{"metricsConfig", metrics}, {"benchmarkScaleConfig", bench}} {
		t.Run(tc.name, func(t *testing.T) {
			sess, err := study.NewSession(context.Background(), tc.cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			db := sess.World.DB
			if err := core.CheckNSIndex(core.IndexOf(sess.NewPipeline(nsset.NewAggregator(), nil, nil)), db); err != nil {
				t.Errorf("the session's index: %v", err)
			}
			if err := core.CheckNSIndex(core.IndexOf(core.NewPipeline(db)), db); err != nil {
				t.Errorf("the index built from the DB: %v", err)
			}
		})
	}

	t.Run("an address in four NSSets", func(t *testing.T) {
		db := dnsdb.New()
		pid := db.AddProvider(dnsdb.Provider{Name: "P"})
		ns := make(map[string]dnsdb.NameserverID)
		for _, a := range []string{"10.0.0.1", "10.0.0.9", "10.0.1.1", "10.0.2.1", "10.0.3.1", "192.0.2.7"} {
			id, err := db.AddNameserver(dnsdb.Nameserver{Addr: netx.MustParseAddr(a), Provider: pid, BaseRTT: 5 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			ns[a] = id
		}
		// first seen is last by key, so ID order and key order differ
		for i, set := range [][]string{
			{"10.0.0.1", "192.0.2.7"},
			{"10.0.0.1", "10.0.3.1"},
			{"10.0.0.1", "10.0.1.1", "10.0.2.1"},
			{"10.0.0.1"},
			{"10.0.0.9", "10.0.1.1"},
		} {
			var ids []dnsdb.NameserverID
			for _, a := range set {
				ids = append(ids, ns[a])
			}
			for range i + 1 {
				db.AddDomain(dnsdb.Domain{Name: "x.example", NS: ids})
			}
		}
		db.Freeze()
		ix := core.IndexOf(core.NewPipeline(db))
		if n := len(ix.NSSetsContaining(netx.MustParseAddr("10.0.0.1"))); n != 4 {
			t.Fatalf("10.0.0.1 is in %d NSSets, want 4", n)
		}
		if err := core.CheckNSIndex(ix, db); err != nil {
			t.Error(err)
		}
	})
}
