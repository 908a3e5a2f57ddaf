package authserver

import (
	"slices"
	"testing"

	"dnsddos/internal/dnsdb"
	"dnsddos/internal/netx"
	"dnsddos/internal/scenario"
)

// fromDBReference is the record-by-record zone load FromDB replaced: one
// AddA per nameserver, then one AddNS per NS record of every domain.
func fromDBReference(db *dnsdb.DB) *Zone {
	z := NewZone()
	for i := range db.Nameservers {
		ns := &db.Nameservers[i]
		z.AddA(ns.Host, ns.Addr)
	}
	for i := range db.Domains {
		d := &db.Domains[i]
		for _, id := range d.NS {
			z.AddNS(d.Name, db.Nameservers[id].Host)
		}
	}
	return z
}

// assertSameZone fails unless got and want hold the same names with the
// same NS hosts and the same addresses, each list in order.
func assertSameZone(t *testing.T, got, want *Zone) {
	t.Helper()
	if len(got.ns) != len(want.ns) || len(got.a) != len(want.a) {
		t.Fatalf("zone has %d delegated names and %d hosts, want %d and %d", len(got.ns), len(got.a), len(want.ns), len(want.a))
	}
	for name, hosts := range want.ns {
		if g, ok := got.ns[name]; !ok || !slices.Equal(g, hosts) {
			t.Errorf("NS %q = %q (present %v), want %q", name, g, ok, hosts)
		}
	}
	for host, addrs := range want.a {
		if g, ok := got.a[host]; !ok || !slices.Equal(g, addrs) {
			t.Errorf("A %q = %v (present %v), want %v", host, g, ok, addrs)
		}
	}
}

// serveWorld is the repo benchmark's serve_clean world: 2,000 domains on
// 20 generic providers.
func serveWorld() *scenario.World {
	return scenario.GenerateWorld(scenario.WorldConfig{
		Seed: 7, Domains: 2000, GenericProviders: 20,
		MisconfiguredShare: 0.003, AnycastRecall: 0.9, InconsistentShare: 0.04,
	})
}

// TestFromDBMatchesReference holds FromDB to the record-by-record load on
// a generated world and on a hand-built database with the names a
// generated world never has: two spellings of one domain, a host written
// with a trailing dot and in capitals on a second address, a nameserver
// no domain uses and a domain with no nameserver.
func TestFromDBMatchesReference(t *testing.T) {
	t.Run("world", func(t *testing.T) {
		db := serveWorld().DB
		assertSameZone(t, FromDB(db), fromDBReference(db))
	})
	t.Run("edges", func(t *testing.T) {
		db := dnsdb.New()
		pid := db.AddProvider(dnsdb.Provider{Name: "P"})
		add := func(host, addr string) dnsdb.NameserverID {
			id, err := db.AddNameserver(dnsdb.Nameserver{Host: host, Addr: netx.MustParseAddr(addr), Provider: pid})
			if err != nil {
				t.Fatal(err)
			}
			return id
		}
		ns1 := add("ns1.p.example", "192.0.2.1")
		ns2 := add("ns2.p.example.", "192.0.2.2")
		add("unused.p.example", "192.0.2.4")
		ns1b := add("NS1.P.example.", "192.0.2.3")
		db.AddDomain(dnsdb.Domain{Name: "zone-a.example", NS: []dnsdb.NameserverID{ns1, ns2}})
		db.AddDomain(dnsdb.Domain{Name: "zone-b.example", NS: []dnsdb.NameserverID{ns2, ns1b}})
		db.AddDomain(dnsdb.Domain{Name: "Example.COM.", NS: []dnsdb.NameserverID{ns1, ns2}})
		db.AddDomain(dnsdb.Domain{Name: "example.com", NS: []dnsdb.NameserverID{ns1b}})
		db.AddDomain(dnsdb.Domain{Name: "empty.example"})
		db.Freeze()
		z := FromDB(db)
		assertSameZone(t, z, fromDBReference(db))
		if got := z.ns["example.com"]; len(got) != 3 {
			t.Errorf("example.com has %d NS hosts, want 3 from both spellings", len(got))
		}
		// a record added after the load must not write into the list of
		// the name loaded next
		z.AddNS("zone-a.example", "ns9.p.example")
		z.AddA("ns2.p.example", netx.MustParseAddr("192.0.2.9"))
		if got := z.ns["zone-b.example"]; !slices.Equal(got, []string{"ns2.p.example", "ns1.p.example"}) {
			t.Errorf("zone-b.example NS hosts = %q after an append to zone-a.example", got)
		}
		if got := z.a["unused.p.example"]; !slices.Equal(got, []netx.Addr{netx.MustParseAddr("192.0.2.4")}) {
			t.Errorf("unused.p.example A = %v after an append to ns2.p.example", got)
		}
	})
}

// BenchmarkZoneFromDB loads the serve_clean world's zone (make
// bench-serve): what every cmd/serve boot and serve_clean set-up pays
// after the world is built.
func BenchmarkZoneFromDB(b *testing.B) {
	db := serveWorld().DB
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if z := FromDB(db); len(z.ns) != len(db.Domains) {
			b.Fatalf("%d delegated names, want %d", len(z.ns), len(db.Domains))
		}
	}
}
