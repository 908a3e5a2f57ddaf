package simnet_test

import (
	"math/rand/v2"
	"testing"
	"time"

	"dnsddos/internal/clock"
	"dnsddos/internal/dnsdb"
	"dnsddos/internal/scenario"
	"dnsddos/internal/simnet"
)

// BenchmarkLoadStateAt asks the load model about one nameserver at one
// instant at the repo benchmark's join_dense density: its 6,000-domain
// world and 20,000-attack schedule (attack seed 7) with a DNS share of
// 0.15, so the servers' attack lists are long. Each query is a nameserver
// that some attack in the first 150 days targets, at a random time of that
// attack's day — loaded, residual and quiet instants alike, as the sweep
// asks them (make bench-sweep).
func BenchmarkLoadStateAt(b *testing.B) {
	wcfg := scenario.DefaultWorldConfig()
	wcfg.Domains, wcfg.GenericProviders = 6000, 60
	w := scenario.GenerateWorld(wcfg)
	acfg := scenario.DefaultAttackConfig()
	acfg.Seed, acfg.TotalAttacks, acfg.DNSShare = 7, 20000, 0.15
	sched := scenario.GenerateSchedule(acfg, w)
	n := simnet.New(simnet.DefaultParams(), w.DB, sched.Sched, sched.Blackouts...)

	type query struct {
		id dnsdb.NameserverID
		at time.Time
	}
	nsAt := w.DB.AllNSAddrs()
	rng := rand.New(rand.NewPCG(25, 25))
	var queries []query
	for _, s := range sched.Sched.Specs() {
		id, ok := nsAt[s.Target]
		if day := clock.DayOf(time.Unix(0, s.Start)); ok && day < 150 {
			queries = append(queries, query{id, day.Start().Add(time.Duration(rng.Int64N(int64(24 * time.Hour))))})
		}
	}
	rng.Shuffle(len(queries), func(i, j int) { queries[i], queries[j] = queries[j], queries[i] })
	if len(queries) < 1000 {
		b.Fatalf("only %d attacked-day queries", len(queries))
	}
	var loaded int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := &queries[i%len(queries)]
		if n.LoadStateAt(q.id, q.at).Utilization() > 0 {
			loaded++
		}
	}
	b.ReportMetric(float64(loaded)/float64(b.N), "loaded/op")
}
