package study

import (
	"context"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"dnsddos/internal/clock"
	"dnsddos/internal/daystore"
	"dnsddos/internal/dnsdb"
	"dnsddos/internal/nsset"
	"dnsddos/internal/obs"
	"dnsddos/internal/openintel"
	"dnsddos/internal/resolver"
)

// stallNet is the session's data plane with a stall in it: the first
// afternoon query of every day chosen by stalls sleeps far past the
// watchdog and then answers, so the abandoned attempt wakes up mid-sweep
// and goes on adding the rest of its day — a sweep only looks at its
// context every 1024 domains — into an aggregator nobody waits for.
type stallNet struct {
	resolver.Transport
	stalls func(clock.Day) bool

	mu      sync.Mutex
	stalled map[clock.Day]bool
}

func (n *stallNet) Query(rng *rand.Rand, id dnsdb.NameserverID, at time.Time) (nsset.QueryStatus, time.Duration) {
	if d := clock.DayOf(at); n.stalls(d) && at.Sub(d.Start()) > 12*time.Hour {
		n.mu.Lock()
		first := !n.stalled[d]
		n.stalled[d] = true
		n.mu.Unlock()
		if first {
			time.Sleep(20 * time.Millisecond)
		}
	}
	return n.Transport.Query(rng, id, at)
}

// TestAbandonedTableIsNotRecycled: in a sealed run under a 1 ms watchdog,
// day-shards that stall — in the WithBeforeDay hook, or in the middle of
// the sweep, after which the abandoned goroutine keeps adding to its table
// — are quarantined, and every day sealed around them has the SHA-256 an
// undisturbed run gives it: the free list never hands out a table an
// abandoned attempt may still write to. (Run under -race, where such a
// hand-out is a reported race before it is a wrong hash.)
func TestAbandonedTableIsNotRecycled(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cfg := QuickConfig()
	cfg.World.Domains = 300
	cfg.World.GenericProviders = 20
	cfg.Attacks.TotalAttacks = 2500
	cfg.FromDay, cfg.ToDay = 20, 79
	cfg.Parallelism = 2

	refDir := t.TempDir()
	if _, err := RunContext(context.Background(), cfg, WithDayStoreDir(refDir), WithSkipJoin()); err != nil {
		t.Fatal(err)
	}

	// The run loop's own pieces, composed by hand so the engine can sit on
	// the stalling data plane; same world, same seeds.
	ctx := context.Background()
	reg := obs.New()
	sess, err := NewSession(ctx, cfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	net := &stallNet{Transport: sess.Net, stalls: func(d clock.Day) bool { return d%4 == 3 }, stalled: make(map[clock.Day]bool)}
	sess.Engine = openintel.NewEngine(sess.World.DB, resolver.New(cfg.Resolver, sess.World.DB, net), cfg.MeasureSeed)
	dir := t.TempDir()
	ledger, err := OpenLedger(cfg, reg, "", dir, false)
	if err != nil {
		t.Fatal(err)
	}
	opts := options{
		daystoreDir:  dir,
		shardTimeout: time.Millisecond,
		beforeDay: func(d clock.Day) {
			if d%4 == 1 {
				time.Sleep(20 * time.Millisecond)
			}
		},
	}
	if err := sess.NewStudy(reg).runSweeps(ctx, opts, ledger); err != nil {
		t.Fatal(err)
	}

	skipped := make(map[clock.Day]bool)
	for _, sk := range ledger.Report().SkippedDays {
		if !strings.HasPrefix(sk.Reason, "watchdog") {
			t.Errorf("day %v quarantined for %q", sk.Day, sk.Reason)
		}
		skipped[sk.Day] = true
	}
	sealedAfterAbandon := 0
	for d := cfg.FromDay; d <= cfg.ToDay; d++ {
		name := daystore.FileName(d)
		got, err := os.ReadFile(filepath.Join(dir, name))
		if skipped[d] {
			if !os.IsNotExist(err) {
				t.Errorf("quarantined day %v has a sealed file (%v)", d, err)
			}
			continue
		}
		if d%4 == 1 || d%4 == 3 {
			t.Errorf("day %v stalled 20 ms under a 1 ms watchdog and was not quarantined", d)
		}
		want, werr := os.ReadFile(filepath.Join(refDir, name))
		if err != nil || werr != nil {
			t.Fatalf("day %v: %v, %v", d, err, werr)
		}
		if string(got) != string(want) {
			t.Errorf("day %v sealed differently from an undisturbed run", d)
		}
		if len(skipped) > 0 {
			sealedAfterAbandon++
		}
	}
	t.Logf("%d days quarantined, %d sealed", len(skipped), int(cfg.ToDay-cfg.FromDay)+1-len(skipped))
	if sealedAfterAbandon == 0 {
		t.Error("no day completed within the watchdog: nothing was sealed from a table taken after an abandonment")
	}
}
