package resolver

import (
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"dnsddos/internal/dnsdb"
	"dnsddos/internal/netx"
	"dnsddos/internal/nsset"
)

// fakeTransport scripts per-nameserver outcomes.
type fakeTransport struct {
	outcomes map[dnsdb.NameserverID]func() (nsset.QueryStatus, time.Duration)
	calls    []dnsdb.NameserverID
}

func (f *fakeTransport) Query(_ *rand.Rand, id dnsdb.NameserverID, _ time.Time) (nsset.QueryStatus, time.Duration) {
	f.calls = append(f.calls, id)
	if fn, ok := f.outcomes[id]; ok {
		return fn()
	}
	return nsset.StatusOK, 10 * time.Millisecond
}

func ok(rtt time.Duration) func() (nsset.QueryStatus, time.Duration) {
	return func() (nsset.QueryStatus, time.Duration) { return nsset.StatusOK, rtt }
}

func fail(st nsset.QueryStatus) func() (nsset.QueryStatus, time.Duration) {
	return func() (nsset.QueryStatus, time.Duration) { return st, 0 }
}

func TestResolveSuccessFirstTry(t *testing.T) {
	db, did := testDBSimple(t, 3)
	tr := &fakeTransport{outcomes: map[dnsdb.NameserverID]func() (nsset.QueryStatus, time.Duration){}}
	r := New(DefaultConfig(), db, tr)
	o := r.Resolve(rand.New(rand.NewPCG(1, 1)), did, time.Now())
	if o.Status != nsset.StatusOK || o.Tries != 1 || o.RTT != 10*time.Millisecond {
		t.Errorf("outcome = %+v", o)
	}
}

// testDBSimple avoids the addr helper contortion above.
func testDBSimple(t *testing.T, numNS int) (*dnsdb.DB, dnsdb.DomainID) {
	t.Helper()
	db := dnsdb.New()
	pid := db.AddProvider(dnsdb.Provider{Name: "P"})
	var ids []dnsdb.NameserverID
	for i := 0; i < numNS; i++ {
		id, err := db.AddNameserver(dnsdb.Nameserver{
			Addr: netx.Addr(0x0a000001 + i*256), Provider: pid, BaseRTT: 5 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	did := db.AddDomain(dnsdb.Domain{Name: "x.example", NS: ids})
	db.Freeze()
	return db, did
}

func TestResolveRetriesOnTimeout(t *testing.T) {
	db, did := testDBSimple(t, 3)
	tr := &fakeTransport{outcomes: map[dnsdb.NameserverID]func() (nsset.QueryStatus, time.Duration){
		0: fail(nsset.StatusTimeout),
		1: fail(nsset.StatusTimeout),
		2: ok(8 * time.Millisecond),
	}}
	cfg := DefaultConfig()
	r := New(cfg, db, tr)
	// find a seed whose shuffle visits 0,1 before 2 — try several
	for seed := uint64(0); seed < 50; seed++ {
		tr.calls = nil
		o := r.Resolve(rand.New(rand.NewPCG(seed, 0)), did, time.Now())
		if len(tr.calls) == 3 {
			// two timeouts burned 2×PerTryTimeout before success
			want := 2*cfg.PerTryTimeout + 8*time.Millisecond
			if o.Status != nsset.StatusOK || o.RTT != want || o.Tries != 3 {
				t.Errorf("outcome = %+v, want RTT %v", o, want)
			}
			return
		}
	}
	t.Skip("no seed visited the two dead servers first")
}

func TestResolveAllTimeout(t *testing.T) {
	db, did := testDBSimple(t, 3)
	tr := &fakeTransport{outcomes: map[dnsdb.NameserverID]func() (nsset.QueryStatus, time.Duration){
		0: fail(nsset.StatusTimeout), 1: fail(nsset.StatusTimeout), 2: fail(nsset.StatusTimeout),
	}}
	r := New(DefaultConfig(), db, tr)
	o := r.Resolve(rand.New(rand.NewPCG(2, 2)), did, time.Now())
	if o.Status != nsset.StatusTimeout || o.Tries != 3 || o.RTT != 0 {
		t.Errorf("outcome = %+v", o)
	}
}

func TestResolveServFailPrecedence(t *testing.T) {
	db, did := testDBSimple(t, 2)
	tr := &fakeTransport{outcomes: map[dnsdb.NameserverID]func() (nsset.QueryStatus, time.Duration){
		0: fail(nsset.StatusServFail), 1: fail(nsset.StatusTimeout),
	}}
	r := New(DefaultConfig(), db, tr)
	o := r.Resolve(rand.New(rand.NewPCG(3, 3)), did, time.Now())
	if o.Status != nsset.StatusServFail {
		t.Errorf("status = %v, want SERVFAIL when any server servfailed", o.Status)
	}
}

func TestResolveMaxTriesBound(t *testing.T) {
	db, did := testDBSimple(t, 5)
	tr := &fakeTransport{outcomes: map[dnsdb.NameserverID]func() (nsset.QueryStatus, time.Duration){
		0: fail(nsset.StatusTimeout), 1: fail(nsset.StatusTimeout), 2: fail(nsset.StatusTimeout),
		3: fail(nsset.StatusTimeout), 4: fail(nsset.StatusTimeout),
	}}
	cfg := DefaultConfig()
	cfg.MaxTries = 2
	r := New(cfg, db, tr)
	o := r.Resolve(rand.New(rand.NewPCG(4, 4)), did, time.Now())
	if o.Tries != 2 || len(tr.calls) != 2 {
		t.Errorf("tries = %d calls = %d, want 2", o.Tries, len(tr.calls))
	}
}

func TestResolveSlowAnswerIsTimeout(t *testing.T) {
	db, did := testDBSimple(t, 1)
	cfg := DefaultConfig()
	tr := &fakeTransport{outcomes: map[dnsdb.NameserverID]func() (nsset.QueryStatus, time.Duration){
		0: ok(cfg.PerTryTimeout + time.Millisecond),
	}}
	r := New(cfg, db, tr)
	o := r.Resolve(rand.New(rand.NewPCG(5, 5)), did, time.Now())
	if o.Status != nsset.StatusTimeout {
		t.Errorf("an answer slower than the try timeout should count as timeout, got %v", o.Status)
	}
}

func TestResolveRandomizesNameserver(t *testing.T) {
	db, did := testDBSimple(t, 3)
	tr := &fakeTransport{outcomes: map[dnsdb.NameserverID]func() (nsset.QueryStatus, time.Duration){}}
	r := New(DefaultConfig(), db, tr)
	rng := rand.New(rand.NewPCG(6, 6))
	first := map[dnsdb.NameserverID]int{}
	for i := 0; i < 3000; i++ {
		tr.calls = nil
		r.Resolve(rng, did, time.Now())
		first[tr.calls[0]]++
	}
	for id, n := range first {
		if n < 800 || n > 1200 {
			t.Errorf("NS %d chosen first %d/3000 times; agnostic selection should be uniform", id, n)
		}
	}
}

func TestResolveNoNameservers(t *testing.T) {
	db := dnsdb.New()
	did := db.AddDomain(dnsdb.Domain{Name: "orphan.example"})
	db.Freeze()
	r := New(DefaultConfig(), db, &fakeTransport{})
	if o := r.Resolve(rand.New(rand.NewPCG(7, 7)), did, time.Now()); o.Status != nsset.StatusServFail {
		t.Errorf("orphan domain = %v", o.Status)
	}
}

func TestQueryNSExhaustive(t *testing.T) {
	db, _ := testDBSimple(t, 2)
	tr := &fakeTransport{outcomes: map[dnsdb.NameserverID]func() (nsset.QueryStatus, time.Duration){
		1: fail(nsset.StatusTimeout),
	}}
	r := New(DefaultConfig(), db, tr)
	rng := rand.New(rand.NewPCG(8, 8))
	if o := r.QueryNS(rng, 0, time.Now()); o.Status != nsset.StatusOK || o.NS != 0 {
		t.Errorf("QueryNS(0) = %+v", o)
	}
	if o := r.QueryNS(rng, 1, time.Now()); o.Status != nsset.StatusTimeout || o.Tries != 1 {
		t.Errorf("QueryNS(1) = %+v", o)
	}
}

// resolveReference is Resolve as it stood before the try order moved to a
// stack array and the membership maps became scans: the oracle the
// differential test below holds Resolve to, draw for draw.
func (r *Resolver) resolveReference(rng *rand.Rand, d dnsdb.DomainID, t time.Time) Outcome {
	dom := &r.db.Domains[d]
	ns := dom.NS
	boot := ns
	if r.cfg.FollowDelegation {
		boot = dom.DelegationNS()
	}
	if len(boot) == 0 {
		return Outcome{Status: nsset.StatusServFail}
	}
	child := make(map[dnsdb.NameserverID]bool, len(ns))
	for _, id := range ns {
		child[id] = true
	}
	order := make([]dnsdb.NameserverID, len(boot))
	copy(order, boot)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	if r.cfg.FollowDelegation && dom.Inconsistent() {
		inBoot := make(map[dnsdb.NameserverID]bool, len(boot))
		for _, id := range boot {
			inBoot[id] = true
		}
		for _, id := range ns {
			if !inBoot[id] {
				order = append(order, id)
			}
		}
	}

	tries := min(r.cfg.MaxTries, len(order))
	var elapsed time.Duration
	sawServFail := false
	var last dnsdb.NameserverID
	for i := 0; i < tries; i++ {
		id := order[i]
		last = id
		status, rtt := r.tr.Query(rng, id, t.Add(elapsed))
		if status == nsset.StatusOK && rtt >= r.cfg.PerTryTimeout {
			status = nsset.StatusTimeout
		}
		if status == nsset.StatusOK && !child[id] {
			sawServFail = true
			elapsed += rtt
			continue
		}
		switch status {
		case nsset.StatusOK:
			return Outcome{Status: nsset.StatusOK, RTT: elapsed + rtt, Tries: i + 1, NS: id}
		case nsset.StatusServFail:
			sawServFail = true
			elapsed += r.db.Nameservers[id].BaseRTT
		default: // timeout
			elapsed += r.cfg.PerTryTimeout
		}
	}
	st := nsset.StatusTimeout
	if sawServFail {
		st = nsset.StatusServFail
	}
	return Outcome{Status: st, Tries: tries, NS: last}
}

// scriptedTransport answers each nameserver the way its script entry says
// and, like the simulated data plane, spends one draw of the caller's rng
// per query, so a diverging try order shows in the rng state as well as in
// the outcome.
type scriptedTransport struct {
	script []nsset.QueryStatus // by NameserverID
	slow   []bool              // StatusOK entries that answer after the try timeout
	calls  []scriptedCall
	record bool
}

type scriptedCall struct {
	id dnsdb.NameserverID
	at time.Time
}

func (s *scriptedTransport) Query(rng *rand.Rand, id dnsdb.NameserverID, at time.Time) (nsset.QueryStatus, time.Duration) {
	if s.record {
		s.calls = append(s.calls, scriptedCall{id, at})
	}
	rtt := time.Duration(1+rng.Uint64()%40) * time.Millisecond
	if s.slow[id] {
		rtt += 2 * time.Second
	}
	return s.script[id], rtt
}

// scriptedWorld builds numNS nameservers with a random script and one
// domain per NS-set size in sizes, every other one behind a stale parent
// delegation that drops some child servers and lists some lame ones.
func scriptedWorld(t testing.TB, rng *rand.Rand, numNS int, sizes []int) (*dnsdb.DB, *scriptedTransport) {
	t.Helper()
	db := dnsdb.New()
	pid := db.AddProvider(dnsdb.Provider{Name: "P"})
	tr := &scriptedTransport{script: make([]nsset.QueryStatus, numNS), slow: make([]bool, numNS)}
	for i := 0; i < numNS; i++ {
		if _, err := db.AddNameserver(dnsdb.Nameserver{
			Addr: netx.Addr(0x0a000001 + i*256), Provider: pid, BaseRTT: time.Duration(3+i) * time.Millisecond,
		}); err != nil {
			t.Fatal(err)
		}
		switch rng.IntN(6) {
		case 0:
			tr.script[i] = nsset.StatusTimeout
		case 1:
			tr.script[i] = nsset.StatusServFail
		case 2:
			tr.slow[i] = true
		}
	}
	pick := func(n int) []dnsdb.NameserverID {
		ids := make([]dnsdb.NameserverID, n)
		for i, p := range rng.Perm(numNS)[:n] {
			ids[i] = dnsdb.NameserverID(p)
		}
		return ids
	}
	for i, n := range sizes {
		d := dnsdb.Domain{Name: "d.example", NS: pick(n)}
		if i%2 == 1 {
			// keep a random part of the child set, add lame servers
			d.ParentNS = append(d.ParentNS, d.NS[:rng.IntN(n+1)]...)
			d.ParentNS = append(d.ParentNS, pick(1+rng.IntN(3))...)
		}
		db.AddDomain(d)
	}
	db.Freeze()
	return db, tr
}

// TestResolveMatchesReference holds the scratch-array Resolve to the
// map-and-make body it replaced: over random worlds, NS sets of 1…20
// (past the 16-entry stack array), consistent and stale delegations, every
// MaxTries and both delegation modes, the outcome, every query issued (to
// whom, at what simulated time) and the rng state afterwards are equal.
func TestResolveMatchesReference(t *testing.T) {
	var sizes []int
	for n := 1; n <= 20; n++ {
		sizes = append(sizes, n, n) // one consistent, one stale, per size
	}
	for world := uint64(0); world < 20; world++ {
		wrng := rand.New(rand.NewPCG(world, 99))
		db, tr := scriptedWorld(t, wrng, 24, sizes)
		tr.record = true
		for maxTries := 1; maxTries <= 5; maxTries++ {
			for _, follow := range []bool{true, false} {
				cfg := Config{PerTryTimeout: 800 * time.Millisecond, MaxTries: maxTries, FollowDelegation: follow}
				r := New(cfg, db, tr)
				for d := range db.Domains {
					did := dnsdb.DomainID(d)
					at := time.Unix(1600000000+int64(d), 0)
					seed := world<<16 | uint64(maxTries)<<8 | uint64(d)
					rngGot, rngWant := rand.New(rand.NewPCG(seed, 5)), rand.New(rand.NewPCG(seed, 5))

					tr.calls = nil
					got := r.Resolve(rngGot, did, at)
					gotCalls := tr.calls
					tr.calls = nil
					want := r.resolveReference(rngWant, did, at)

					if got != want {
						t.Fatalf("world %d domain %d (ns %d, parent %d) tries %d follow %v: outcome %+v, reference %+v",
							world, d, len(db.Domains[d].NS), len(db.Domains[d].ParentNS), maxTries, follow, got, want)
					}
					if !slices.Equal(gotCalls, tr.calls) {
						t.Fatalf("world %d domain %d tries %d follow %v: queries %v, reference %v", world, d, maxTries, follow, gotCalls, tr.calls)
					}
					if g, w := rngGot.Uint64(), rngWant.Uint64(); g != w {
						t.Fatalf("world %d domain %d tries %d follow %v: rng state diverged", world, d, maxTries, follow)
					}
				}
			}
		}
	}
}

// TestResolveAllocatesNothing pins the sweep's per-record contract: one
// resolution — consistent or stale delegation — makes no heap allocation.
func TestResolveAllocatesNothing(t *testing.T) {
	db, tr := scriptedWorld(t, rand.New(rand.NewPCG(1, 2)), 8, []int{4, 4})
	r := New(DefaultConfig(), db, tr)
	rng := rand.New(rand.NewPCG(3, 4))
	at := time.Unix(1600000000, 0)
	for d, shape := range []string{"consistent", "stale"} {
		if got := db.Domains[d].Inconsistent(); got != (shape == "stale") {
			t.Fatalf("domain %d: inconsistent = %v", d, got)
		}
		if n := testing.AllocsPerRun(200, func() { r.Resolve(rng, dnsdb.DomainID(d), at) }); n != 0 {
			t.Errorf("%s delegation: %v allocations per Resolve, want 0", shape, n)
		}
	}
}
