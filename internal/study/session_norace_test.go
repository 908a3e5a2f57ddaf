//go:build !race

package study

import (
	"context"
	"io"
	"runtime"
	"testing"

	"dnsddos/internal/clock"
	"dnsddos/internal/daystore"
	"dnsddos/internal/obs"
	"dnsddos/internal/rsdos"
)

// raceEnabled reports that the race detector is on (race_test.go).
const raceEnabled = false

// newSessionAllocBudget is 1.15 × the 1,886 objects NewSession allocates
// for metricsConfig (1 500 domains, 1 500 attacks and the case studies over
// 17 months), with the finished attacks in one reserved array; it was
// 114,843 with a port map per window, a Key per domain
// and a formatted name and an NS copy per domain, 17,199 with a slice
// and a port list per generated attack and a heap node per prefix bit of
// the AS table, 3,444 with the whole telescope feed held, 3,358 before
// the world was built in one step per name, and 1,943 with the schedule
// drawn into chunks of components. Building the join's nameserver index
// in the session, once, made it 1,945; folding each observation into its
// run as it is taken, with no slot chunks, and feed blocks whose ports
// never regrow, 1,899 (budget 2,469, at 1.3 ×).
const newSessionAllocBudget = 2169

// TestNewSessionAllocBudget pins what building a session allocates at a
// small fixed world. The count is exact for a given toolchain (the build
// is a pure function of the config); the race detector's instrumentation
// changes it, so the file is built without it.
func TestNewSessionAllocBudget(t *testing.T) {
	cfg := metricsConfig()
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := NewSession(context.Background(), cfg, obs.New()); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("NewSession: %.0f allocations", allocs)
	if allocs > newSessionAllocBudget {
		t.Errorf("NewSession allocated %.0f objects, budget %d", allocs, newSessionAllocBudget)
	}
}

// TestFeedBlockPortsNeverRegrow: foldFeed hands a block over when the
// next observation's ports would not fit in it, so a block's port array
// is the one it was made with. A stub synthesizer emits ten blocks' worth
// of seven-port observations, which would fill a block's 2,048 ports with
// 293 of its 1,024 observations, and foldFeed must allocate no more
// objects than for the same feed without ports. The observations do not
// qualify, so the fold allocates nothing for either.
func TestFeedBlockPortsNeverRegrow(t *testing.T) {
	seven := make([]rsdos.PortCount, 7)
	for i := range seven {
		seven[i] = rsdos.PortCount{Port: uint16(i + 1), N: 1}
	}
	// on one P the helper has exited, its goroutine free for the next
	// run's, by the time foldFeed returns
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	allocs := func(ports []rsdos.PortCount) float64 {
		return testing.AllocsPerRun(10, func() {
			foldFeed(rsdos.NewFold(rsdos.DefaultConfig()), func(emit func(*rsdos.WindowObs), advance func(clock.Window)) {
				o := rsdos.WindowObs{Ports: ports}
				for w := range clock.Window(10 * feedBlockLen) {
					advance(w)
					o.Window = w
					emit(&o)
				}
			})
		})
	}
	with, without := allocs(seven), allocs(nil)
	t.Logf("foldFeed: %.0f allocations with seven ports an observation, %.0f without", with, without)
	if with > without {
		t.Errorf("foldFeed allocated %.0f objects for seven-port observations, %.0f without ports: a block's ports regrew", with, without)
	}
}

// TestNewSessionBytesBudget pins the bytes building a session allocates
// and the heap it leaves live, at metricsConfig, at the repo benchmark's
// study scale and at QuickConfig with 60,000 attacks, where the attacks a
// fold holds open and the schedule's arrays outweigh the world. The
// budgets are 1.15 × what a build allocates and leaves live after a
// collection, the session still held, with the schedule drawn into its
// one array, reserved for the multi-vector seconds' mean + 6σ + 16, and
// sorted there, 64-byte attacks finished into one array reserved for the
// schedule's spoofed components and sorted there, a fold that folds each
// observation into its victim's run as it is taken, a demand clipped to
// the run's days, an engine that keeps one key per NSSet, 48-byte
// components and domains and victims chained without a map: 1.41, 3.37
// and 14.5 MB allocated, 0.61, 2.22 and 10.7 MB live (the dense case
// holds 100,662 components). With 72-byte components, 80-byte domains
// and the chains' map they were 1.52, 3.92 and 16.2 MB allocated, 0.72,
// 2.83 and 13.3 MB live (budgets 1,754,000, 4,504,000 and 18,673,000;
// 825,000, 3,256,000 and 15,281,000). With the finished attacks copied out of
// chunks, the demand over the whole schedule and a key per domain they
// were 1.74, 4.75 and 20.2 MB allocated, 0.78, 3.25 and 13.4 MB live
// (budgets 1,999,000, 5,461,000 and 23,255,000; 891,000, 3,734,000 and
// 15,379,000).
// With a fold that copied each qualifying observation into a slot until
// its window closed they were 3.90, 6.83 and 22.5 MB allocated, the live
// heap the same. With the draw in chunks of components copied into the
// array and 80-byte attacks they were 4.52, 8.02 and 32.1 MB and 0.80,
// 3.34 and 14.3 MB; with 136-byte components and the bit trie 5.35, 9.28 and 38.4 MB and
// 1.01, 4.04 and 20.8 MB. Finalizing every candidate at the end, with
// the schedule reserved at twice its attacks and copied, the allocations
// were 6.23, 14.0 and 94.7 MB; holding the feed whole too, 8.16 and
// 24.84 MB at the first two. A schedule that kept a reserve much longer
// than its attacks would pin the dead tail; the reserve's tail is a few
// dozen components, about 4 kB at the benchmark's scale. Each build must
// also finish its attacks into the list feedAttacks reserved: a list that
// outgrew it was copied once, which the byte budgets are too loose to
// see (one growth at the benchmark's scale is about 0.5 MB).
func TestNewSessionBytesBudget(t *testing.T) {
	dense := QuickConfig()
	dense.Attacks.TotalAttacks = 60000
	for _, tc := range []struct {
		name        string
		cfg         Config
		alloc, live uint64
	}{
		{"metricsConfig", metricsConfig(), 1_625_000, 697_000},
		{"benchmark scale", benchmarkScaleConfig(), 3_873_000, 2_552_000},
		{"dense", dense, 16_691_000, 12_274_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// the least of three builds: a goroutine another test left
			// behind can only add to one
			alloc, live := ^uint64(0), ^uint64(0)
			for range 3 {
				var before, after, collected runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				sess, err := NewSession(context.Background(), tc.cfg, obs.New())
				if err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				runtime.GC()
				runtime.ReadMemStats(&collected)
				runtime.KeepAlive(sess)
				// an attack list that outgrew the reserve was copied
				if n, reserve := len(sess.Attacks), sess.feedAttacks(); cap(sess.Attacks) != reserve || n > reserve {
					t.Fatalf("NewSession finished %d attacks into capacity %d, reserved %d: the list grew past its reserve", n, cap(sess.Attacks), reserve)
				}
				alloc = min(alloc, after.TotalAlloc-before.TotalAlloc)
				live = min(live, collected.HeapAlloc-min(collected.HeapAlloc, before.HeapAlloc))
			}
			t.Logf("NewSession: %d bytes allocated, %d live after a collection", alloc, live)
			if alloc > tc.alloc {
				t.Errorf("NewSession allocated %d bytes, budget %d", alloc, tc.alloc)
			}
			if live > tc.live {
				t.Errorf("NewSession left %d bytes live, budget %d", live, tc.live)
			}
		})
	}
}

// coldRejoinAllocBudget is 1.15 × the 793 objects one cold re-join of
// the repo benchmark's join_dense study allocates, with the session's one
// nameserver index and a day store that cuts its slots and views from one
// array. It was 2,517 when every pipeline built a map-based index of its
// own and the store allocated a slot, an os.File, a Stat, a View and an
// unmap closure per day.
const coldRejoinAllocBudget = 912

// TestColdRejoinAllocBudget pins what a cold re-join over sealed days
// allocates: open the day store, build the session's pipeline, join the
// feed, close — the join_dense operation without Classify and the CSV.
func TestColdRejoinAllocBudget(t *testing.T) {
	ctx := context.Background()
	cfg := DefaultConfig()
	cfg.World.Domains = 6000
	cfg.World.GenericProviders = 60
	cfg.Attacks.TotalAttacks = 20000
	cfg.Attacks.DNSShare = 0.15
	cfg.FromDay, cfg.ToDay = 0, 149
	dir := t.TempDir()
	swept, err := RunContext(ctx, cfg, WithDayStoreDir(dir), WithSkipJoin())
	if err != nil {
		t.Fatal(err)
	}
	if err := swept.Pipeline.DayStore().(io.Closer).Close(); err != nil {
		t.Fatal(err)
	}
	sess := swept.Session()
	allocs := testing.AllocsPerRun(5, func() {
		set, err := daystore.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if events, err := sess.NewPipeline(set, nil, nil).EventsContext(ctx, swept.Attacks); err != nil || len(events) == 0 {
			t.Fatalf("the re-join gave %d events, error %v", len(events), err)
		}
		if err := set.Close(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("cold re-join: %.0f allocations", allocs)
	if allocs > coldRejoinAllocBudget {
		t.Errorf("a cold re-join allocated %.0f objects, budget %d", allocs, coldRejoinAllocBudget)
	}
}
