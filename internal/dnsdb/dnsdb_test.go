package dnsdb

import (
	"slices"
	"testing"
	"time"
	"unsafe"

	"dnsddos/internal/netx"
)

func buildTestDB(t *testing.T) (*DB, []NameserverID) {
	t.Helper()
	db := New()
	pid := db.AddProvider(Provider{Name: "TestDNS", Country: "NL"})
	var ids []NameserverID
	for i, addr := range []string{"192.0.2.1", "192.0.2.2", "198.51.100.1"} {
		id, err := db.AddNameserver(Nameserver{
			Host:        "ns" + string(rune('1'+i)) + ".test.example",
			Addr:        netx.MustParseAddr(addr),
			Provider:    pid,
			CapacityPPS: 1e5,
			BaseRTT:     10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	db.AddDomain(Domain{Name: "a.example", NS: []NameserverID{ids[0], ids[1]}})
	db.AddDomain(Domain{Name: "b.example", NS: []NameserverID{ids[0], ids[1], ids[2]}})
	db.AddDomain(Domain{Name: "c.example", NS: []NameserverID{ids[2]}})
	db.Freeze()
	return db, ids
}

func TestNameserverByAddr(t *testing.T) {
	db, ids := buildTestDB(t)
	ns, ok := db.NameserverByAddr(netx.MustParseAddr("192.0.2.2"))
	if !ok || ns.ID != ids[1] {
		t.Errorf("lookup = %+v, %v", ns, ok)
	}
	if _, ok := db.NameserverByAddr(netx.MustParseAddr("203.0.113.1")); ok {
		t.Error("unknown address should miss")
	}
}

func TestDuplicateNameserverAddrRejected(t *testing.T) {
	db := New()
	pid := db.AddProvider(Provider{Name: "P"})
	if _, err := db.AddNameserver(Nameserver{Addr: 1, Provider: pid}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddNameserver(Nameserver{Addr: 1, Provider: pid}); err == nil {
		t.Error("duplicate address should be rejected")
	}
}

func TestDomainsOfReverseIndex(t *testing.T) {
	db, ids := buildTestDB(t)
	if got := db.NumDomainsOf(ids[0]); got != 2 {
		t.Errorf("ns0 hosts %d domains, want 2", got)
	}
	if got := db.NumDomainsOf(ids[2]); got != 2 {
		t.Errorf("ns2 hosts %d domains, want 2", got)
	}
	seen := map[string]bool{}
	for _, d := range db.DomainsOf(ids[2]) {
		seen[db.Domains[d].Name] = true
	}
	if !seen["b.example"] || !seen["c.example"] {
		t.Errorf("ns2 domains = %v", seen)
	}
}

func TestDomainNSSortedDeduped(t *testing.T) {
	db := New()
	pid := db.AddProvider(Provider{Name: "P"})
	a, _ := db.AddNameserver(Nameserver{Addr: 10, Provider: pid})
	b, _ := db.AddNameserver(Nameserver{Addr: 5, Provider: pid})
	did := db.AddDomain(Domain{Name: "x.example", NS: []NameserverID{b, a, a, b}})
	db.Freeze()
	ns := db.Domains[did].NS
	// sorted by NameserverID and deduplicated
	if len(ns) != 2 || ns[0] != a || ns[1] != b {
		t.Errorf("NS list = %v, want sorted dedup [%d %d]", ns, a, b)
	}
}

// TestAddDomainLeavesCallerSlices: an unsorted, duplicated list is copied
// before it is put in order — the caller's array is untouched, the parent
// list included — and a list already in order is kept, so the domains of
// one group read one array.
func TestAddDomainLeavesCallerSlices(t *testing.T) {
	db := New()
	pid := db.AddProvider(Provider{Name: "P"})
	var ids [4]NameserverID
	for i := range ids {
		ids[i], _ = db.AddNameserver(Nameserver{Addr: netx.Addr(10 + i), Provider: pid})
	}
	messy := []NameserverID{ids[3], ids[1], ids[3], ids[0], ids[1]}
	parent := []NameserverID{ids[2], ids[0], ids[2]}
	messyWas, parentWas := slices.Clone(messy), slices.Clone(parent)
	did := db.AddDomain(Domain{Name: "x.example", NS: messy}, parent...)
	if !slices.Equal(messy, messyWas) || !slices.Equal(parent, parentWas) {
		t.Errorf("AddDomain wrote to its argument: NS %v (was %v), parent %v (was %v)", messy, messyWas, parent, parentWas)
	}
	d := db.Domains[did]
	if !slices.Equal(d.NS, []NameserverID{ids[0], ids[1], ids[3]}) || !slices.Equal(db.ParentNS(did), []NameserverID{ids[0], ids[2]}) {
		t.Errorf("stored NS %v, ParentNS %v", d.NS, db.ParentNS(did))
	}

	group := []NameserverID{ids[0], ids[2], ids[3]}
	one := db.AddDomain(Domain{Name: "one.example", NS: group})
	two := db.AddDomain(Domain{Name: "two.example", NS: group}, group...)
	if &db.Domains[one].NS[0] != &group[0] || &db.Domains[two].NS[0] != &group[0] {
		t.Error("domains added from one sorted list do not share its array")
	}
	if db.ParentNS(two) != nil {
		t.Errorf("a parent list equal to NS was kept: %v", db.ParentNS(two))
	}
}

// TestParentNSSideTable: the DB keeps only the parent lists that differ
// from their domain's NS, in an order and set of domains of its own, and
// answers for every domain — a parent list equal to NS, given in another
// order, is dropped, and a consistent domain delegates to its NS, an
// inconsistent one to its parent list.
func TestParentNSSideTable(t *testing.T) {
	db := New()
	pid := db.AddProvider(Provider{Name: "P"})
	var ids [4]NameserverID
	for i := range ids {
		ids[i], _ = db.AddNameserver(Nameserver{Addr: netx.Addr(10 + i), Provider: pid})
	}
	child := []NameserverID{ids[0], ids[1]}
	stale := []NameserverID{ids[2], ids[1]}
	var want [][]NameserverID // each domain's parent list, nil when consistent
	for i := range 9 {
		var parent []NameserverID
		switch i % 3 {
		case 1:
			parent = []NameserverID{ids[1], ids[0]} // NS in another order
		case 2:
			parent = stale
		}
		did := db.AddDomain(Domain{Name: "d.example", NS: child}, parent...)
		if i%3 == 2 {
			want = append(want, []NameserverID{ids[1], ids[2]})
		} else {
			want = append(want, nil)
		}
		if int(did) != i {
			t.Fatalf("domain %d got ID %d", i, did)
		}
	}
	db.Freeze()
	if len(db.parentNS) != 3 {
		t.Errorf("the side table holds %d parent lists, want the 3 that differ", len(db.parentNS))
	}
	for i, w := range want {
		d := DomainID(i)
		if got := db.ParentNS(d); !slices.Equal(got, w) || (got == nil) != (w == nil) {
			t.Errorf("domain %d: ParentNS %v, want %v", d, got, w)
		}
		wantDeleg := child
		if w != nil {
			wantDeleg = w
		}
		if got := db.DelegationNS(d); !slices.Equal(got, wantDeleg) {
			t.Errorf("domain %d: DelegationNS %v, want %v", d, got, wantDeleg)
		}
		if got := db.Inconsistent(d); got != (w != nil) {
			t.Errorf("domain %d: Inconsistent %v", d, got)
		}
	}
}

// TestDomainLayout holds a domain to 48 bytes: a world holds one per
// registered domain, a million at the paper's scale. It took 80 with the
// parent-side list on every row.
func TestDomainLayout(t *testing.T) {
	if size := unsafe.Sizeof(Domain{}); size > 48 {
		t.Errorf("Domain takes %d bytes, want ≤ 48", size)
	}
}

func TestNSAddrsSorted(t *testing.T) {
	db, _ := buildTestDB(t)
	addrs := db.NSAddrs(1) // b.example
	if len(addrs) != 3 {
		t.Fatalf("addrs = %v", addrs)
	}
	for i := 1; i < len(addrs); i++ {
		if addrs[i-1] >= addrs[i] {
			t.Errorf("addrs not sorted: %v", addrs)
		}
	}
}

func TestFreezeGuards(t *testing.T) {
	db, _ := buildTestDB(t)
	defer func() {
		if recover() == nil {
			t.Error("mutation after Freeze should panic")
		}
	}()
	db.AddDomain(Domain{Name: "late.example"})
}

func TestDomainsOfBeforeFreezePanics(t *testing.T) {
	db := New()
	pid := db.AddProvider(Provider{Name: "P"})
	id, _ := db.AddNameserver(Nameserver{Addr: 1, Provider: pid})
	defer func() {
		if recover() == nil {
			t.Error("DomainsOf before Freeze should panic")
		}
	}()
	db.DomainsOf(id)
}

func TestProviderOf(t *testing.T) {
	db, ids := buildTestDB(t)
	if p := db.ProviderOf(ids[0]); p.Name != "TestDNS" {
		t.Errorf("ProviderOf = %+v", p)
	}
}

func TestScrubbingAt(t *testing.T) {
	var p Provider
	if p.ScrubbingAt(time.Now()) {
		t.Error("zero ScrubbingSince means never")
	}
	since := time.Date(2021, 2, 1, 0, 0, 0, 0, time.UTC)
	p.ScrubbingSince = since
	if p.ScrubbingAt(since.Add(-time.Second)) {
		t.Error("before deployment")
	}
	if !p.ScrubbingAt(since) || !p.ScrubbingAt(since.Add(time.Hour)) {
		t.Error("at/after deployment")
	}
}

func TestAllNSAddrs(t *testing.T) {
	db, ids := buildTestDB(t)
	all := db.AllNSAddrs()
	if len(all) != 3 {
		t.Fatalf("AllNSAddrs = %d entries", len(all))
	}
	if all[netx.MustParseAddr("192.0.2.1")] != ids[0] {
		t.Error("wrong mapping")
	}
	// mutation of the returned map must not affect the DB
	delete(all, netx.MustParseAddr("192.0.2.1"))
	if _, ok := db.NameserverByAddr(netx.MustParseAddr("192.0.2.1")); !ok {
		t.Error("returned map should be a copy")
	}
}

func TestDeploymentString(t *testing.T) {
	if DeployUnicast.String() != "unicast" || DeployAnycast.String() != "anycast" ||
		DeployPartialAnycast.String() != "partial-anycast" {
		t.Error("deployment strings")
	}
}

func TestSitesDefaultsToOne(t *testing.T) {
	db := New()
	pid := db.AddProvider(Provider{Name: "P"})
	id, _ := db.AddNameserver(Nameserver{Addr: 1, Provider: pid, Sites: 0})
	if db.Nameservers[id].Sites != 1 {
		t.Errorf("Sites = %d, want 1", db.Nameservers[id].Sites)
	}
}

// TestFreezeCutsOneArray holds the reverse index to the per-nameserver
// append it replaced — each nameserver's domains in domain order — and
// pins its shape: every list is cut from one array with its capacity
// clamped to its length, and a Freeze is three allocations (the counts,
// the array, the list headers) whatever the database's size.
func TestFreezeCutsOneArray(t *testing.T) {
	db := New()
	pid := db.AddProvider(Provider{Name: "TestDNS"})
	var ids []NameserverID
	for i := 0; i < 40; i++ {
		id, err := db.AddNameserver(Nameserver{Addr: netx.Addr(0xc0000200 + uint32(i)), Provider: pid})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	want := make([][]DomainID, len(ids))
	for d := 0; d < 500; d++ {
		// nameservers 30 and up host nothing
		ns := []NameserverID{ids[d%30], ids[(d*7)%30], ids[(d*13+5)%30]}
		id := db.AddDomain(Domain{Name: "d.example", NS: ns})
		for _, n := range db.Domains[id].NS {
			want[n] = append(want[n], id)
		}
	}
	db.Freeze()
	for _, id := range ids {
		got := db.DomainsOf(id)
		if !slices.Equal(got, want[id]) {
			t.Errorf("nameserver %d: domains %v, want %v", id, got, want[id])
		}
		if cap(got) != len(got) {
			t.Errorf("nameserver %d: room for %d domains, holds %d", id, cap(got), len(got))
		}
	}
	allocs := testing.AllocsPerRun(5, func() {
		db.frozen = false
		db.Freeze()
	})
	if allocs > 3 {
		t.Errorf("Freeze allocated %.0f objects, want at most 3", allocs)
	}
}
