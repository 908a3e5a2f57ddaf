package study

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"dnsddos/internal/attacksim"
	"dnsddos/internal/clock"
	"dnsddos/internal/core"
	"dnsddos/internal/leakcheck"
	"dnsddos/internal/netx"
	"dnsddos/internal/nsset"
	"dnsddos/internal/obs"
	"dnsddos/internal/rsdos"
	"dnsddos/internal/scenario"
	"dnsddos/internal/telescope"
)

// TestDemandMatchesMap holds the demand to the maps it stands for — one
// entry per kept (NSSet, window) pair and one per swept (NSSet, day),
// filled attack by attack, NSSet by NSSet and window by window — over
// random tables, attack sets and day offsets, asking about every ID (one
// past the table too) and every window and day from well below the first
// span to well above the last. The build allocates the same number of
// objects whatever the number of NSSets and attacks.
func TestDemandMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 0x5e7))
	type pair struct {
		id nsset.ID
		w  clock.Window
	}
	type dayPair struct {
		id nsset.ID
		d  clock.Day
	}
	build := func(nsets, attacks int) (*nsset.Interner, []rsdos.Attack) {
		tab := new(nsset.Interner)
		for tab.Len() < nsets {
			var members []netx.Addr
			for m := 1 + rng.IntN(4); m > 0; m-- {
				members = append(members, netx.Addr(1+rng.IntN(3*nsets)))
			}
			tab.Intern(members)
		}
		base := clock.Window(rng.IntN(100000) - 20000) // negative windows too
		out := make([]rsdos.Attack, attacks)
		for i := range out {
			start := base + clock.Window(rng.IntN(3000))
			// a victim in no NSSet now and then
			out[i] = rsdos.Attack{Victim: netx.Addr(1 + rng.IntN(4*nsets)), StartWindow: start, EndWindow: start + clock.Window(rng.IntN(40))}
		}
		return tab, out
	}
	for round := 0; round < 100; round++ {
		tab, attacks := build(1+rng.IntN(8), rng.IntN(12))
		before, after := clock.Window(rng.IntN(400)), clock.Window(rng.IntN(400))
		backs := []clock.Day{0}
		for _, b := range []clock.Day{1, 2, 7} {
			if rng.IntN(2) == 0 {
				backs = append(backs, b)
			}
		}
		keep := make(map[pair]bool)
		sweep := make(map[dayPair]bool)
		lo, hi := clock.Window(0), clock.Window(0)
		for _, a := range attacks {
			for id := 0; id < tab.Len(); id++ {
				if !tab.Key(nsset.ID(id)).Contains(a.Victim) {
					continue
				}
				for w := a.StartWindow - before; w <= a.EndWindow+after; w++ {
					keep[pair{nsset.ID(id), w}] = true
					for _, b := range backs {
						sweep[dayPair{nsset.ID(id), w.Day() - b}] = true
					}
				}
			}
			lo, hi = min(lo, a.StartWindow-before), max(hi, a.EndWindow+after)
		}
		windows, days := newDemand(everyIDIndex(tab), tab.Len(), attacks, before, after, backs)
		for id := nsset.ID(0); int(id) <= tab.Len(); id++ {
			for w := lo - 200; w <= hi+200; w++ {
				if got, want := windows.has(id, int64(w)), keep[pair{id, w}]; got != want {
					t.Fatalf("round %d: (%d, %d) kept = %v, the map says %v", round, id, w, got, want)
				}
			}
			for d := lo.Day() - 10; d <= hi.Day()+10; d++ {
				if got, want := days.has(id, int64(d)), sweep[dayPair{id, d}]; got != want {
					t.Fatalf("round %d: (%d, day %d) swept = %v, the map says %v (backs %v)", round, id, d, got, want, backs)
				}
			}
			for _, x := range []int64{-1 << 62, 1 << 62} {
				if windows.has(id, x) || days.has(id, x) {
					t.Fatalf("round %d: far unit (%d, %d) is in the demand", round, id, x)
				}
			}
		}
	}

	small, few := build(4, 10)
	large, many := build(300, 5000)
	var allocs [2]float64
	for i, tc := range []struct {
		tab     *nsset.Interner
		attacks []rsdos.Attack
	}{{small, few}, {large, many}} {
		ix := everyIDIndex(tc.tab)
		allocs[i] = testing.AllocsPerRun(5, func() { newDemand(ix, tc.tab.Len(), tc.attacks, 72, 288, demandDaysBack[:]) })
	}
	if allocs[0] != allocs[1] {
		t.Errorf("the demand of 4 NSSets and 10 attacks allocates %v objects, of 300 and 5,000 %v: want the same", allocs[0], allocs[1])
	}
}

// everyIDIndex is the nameserver index over tab in which every NSSet
// hosts one domain.
func everyIDIndex(tab *nsset.Interner) *core.NSIndex {
	ids := make([]nsset.ID, tab.Len())
	for i := range ids {
		ids[i] = nsset.ID(i)
	}
	return core.NewNSIndex(tab, ids)
}

// TestSessionFeedMatchesInfer holds the session's attacks — inference
// folding the windows synthesis has closed on a second goroutine while
// synthesis still draws, the noise merged in below each watermark — to
// the one-goroutine build: Infer over the whole feed Synthesize draws,
// collected, SynthesizeNoise's appended. Session.Feed, collected, is that
// feed up to the order of windows, and never emits below a watermark it
// announced. The session keeps no feed, and its gauges count the feed and
// the slots the fold held at once.
func TestSessionFeedMatchesInfer(t *testing.T) {
	noisy := metricsConfig()
	noisy.IncludeNoise = true
	noisy.Noise.Days = 20
	// Validate wants a positive TotalAttacks, so a schedule without a
	// randomly spoofed component is built around NewSession: the
	// generated schedule's other components, fed to the session's feed
	// stage.
	noSpoofed := func(sched *scenario.Schedule) *scenario.Schedule {
		var rest []attacksim.Spec
		for _, s := range sched.Sched.Specs() {
			if s.Vector != attacksim.VectorRandomSpoofed {
				rest = append(rest, s)
			}
		}
		out := *sched
		out.Sched = attacksim.NewSchedule(rest)
		return &out
	}
	for _, tc := range []struct {
		name     string
		cfg      Config
		procs    int // GOMAXPROCS for the build, 0 to leave it
		reshape  func(*scenario.Schedule) *scenario.Schedule
		wantNone bool
	}{
		{name: "QuickConfig", cfg: QuickConfig()},
		{name: "noise", cfg: noisy},
		{name: "no randomly spoofed component", cfg: metricsConfig(), reshape: noSpoofed, wantNone: true},
		{name: "GOMAXPROCS 1", cfg: QuickConfig(), procs: 1},
		{name: "benchmark scale", cfg: benchmarkScaleConfig()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.procs > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.procs))
			}
			reg := obs.New()
			var sess *Session
			if tc.reshape == nil {
				var err error
				if sess, err = NewSession(context.Background(), tc.cfg, reg); err != nil {
					t.Fatal(err)
				}
			} else {
				w := scenario.GenerateWorld(tc.cfg.World)
				sess = &Session{Config: tc.cfg, World: w, Telescope: telescope.NewUCSD(),
					Schedule: tc.reshape(scenario.GenerateSchedule(tc.cfg.Attacks, w))}
				if len(sess.Schedule.Sched.Specs()) == 0 {
					t.Fatal("the reshaped schedule is empty")
				}
				if err := sess.buildFeed(context.Background(), reg, time.Now()); err != nil {
					t.Fatal(err)
				}
			}
			var feed []rsdos.WindowObs
			scenario.Synthesize(tc.cfg.Synth, sess.World, sess.Schedule.Sched, sess.Telescope, func(o *rsdos.WindowObs) {
				c := *o
				c.Ports = slices.Clone(o.Ports)
				feed = append(feed, c)
			}, nil)
			if tc.cfg.IncludeNoise {
				feed = append(feed, scenario.SynthesizeNoise(tc.cfg.Noise, sess.Telescope)...)
			}
			if got := len(sess.Attacks) == 0; got != tc.wantNone {
				t.Fatalf("%d attacks inferred", len(sess.Attacks))
			}
			if want := rsdos.Infer(tc.cfg.RSDoS, feed); !reflect.DeepEqual(sess.Attacks, want) {
				t.Errorf("the session's attacks differ from Infer's (%d vs %d)", len(sess.Attacks), len(want))
			}
			var fed []rsdos.WindowObs
			watermark := clock.Window(math.MinInt64)
			sess.Feed(func(o *rsdos.WindowObs) {
				if o.Window < watermark {
					t.Fatalf("Feed emitted window %d below its watermark %d", o.Window, watermark)
				}
				c := *o
				c.Ports = slices.Clone(o.Ports)
				fed = append(fed, c)
			}, func(w clock.Window) { watermark = w })
			if len(fed) != len(feed) || !reflect.DeepEqual(rsdos.Infer(tc.cfg.RSDoS, fed), sess.Attacks) {
				t.Errorf("Session.Feed holds %d observations and infers other attacks than the session's; the feed holds %d", len(fed), len(feed))
			}
			if sess.Obs != nil || sess.newStudy(reg).Obs != nil {
				t.Error("the session holds the feed")
			}
			n := reg.Gauge("study.feed.observations", obs.Volatile()).Load()
			runs := reg.Gauge("study.feed.peak_runs", obs.Volatile()).Load()
			if n != int64(len(feed)) {
				t.Errorf("study.feed.observations = %d, the feed holds %d", n, len(feed))
			}
			if tc.wantNone != (runs == 0) || (!tc.wantNone && runs >= n) {
				t.Errorf("study.feed.peak_runs = %d of %d observations", runs, n)
			}
		})
	}
	t.Run("cancelled", func(t *testing.T) {
		leakcheck.NoGoroutineLeaks(t)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if sess, err := NewSession(ctx, metricsConfig(), obs.New()); sess != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("NewSession on a cancelled context = %v, %v; want nil, %v", sess, err, context.Canceled)
		}
	})
}

// TestFoldBehindPanicReachesCaller: a panic on either side of foldFeed
// reaches the caller once both sides have stopped, with the helper gone
// and synthesis never left waiting on a block — a panic on the helper
// (the fold's own, an observation below a window already closed) while
// synthesis goes on to draw many more blocks, and a panic inside
// synthesis with full blocks still on their way to the fold.
func TestFoldBehindPanicReachesCaller(t *testing.T) {
	qualifying := func(w clock.Window) *rsdos.WindowObs {
		return &rsdos.WindowObs{Window: w, Packets: 100, Slash16: 50, Ports: []rsdos.PortCount{{Port: 53, N: 100}}}
	}
	for _, tc := range []struct {
		name       string
		synthesize func(emit func(*rsdos.WindowObs), advance func(clock.Window))
		want       string
	}{
		{"on the helper", func(emit func(*rsdos.WindowObs), advance func(clock.Window)) {
			advance(30)
			for range feedBlockLen {
				emit(qualifying(30))
			}
			for range feedBlockLen {
				emit(qualifying(5)) // the helper closes window 30 first
			}
			for range 10 * feedBlockLen {
				emit(qualifying(40))
			}
		}, "window 5"},
		{"in synthesis", func(emit func(*rsdos.WindowObs), advance func(clock.Window)) {
			for w := range clock.Window(3 * feedBlockLen) {
				advance(w)
				emit(qualifying(w))
			}
			panic("synthesis failed")
		}, "synthesis failed"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			leakcheck.NoGoroutineLeaks(t)
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), tc.want) {
					t.Fatalf("foldFeed panicked with %v, want %q", r, tc.want)
				}
			}()
			foldFeed(rsdos.NewFold(rsdos.DefaultConfig()), tc.synthesize)
			t.Fatal("foldFeed returned")
		})
	}
}

// benchmarkScaleConfig is the repo benchmark's study at seed 1 in all but
// the seed derivation: 12 000 domains, 150 days, 6 000 attacks drawn with
// attack seed 7.
func benchmarkScaleConfig() Config {
	cfg := DefaultConfig()
	cfg.World.Domains = 12000
	cfg.World.GenericProviders = 60
	cfg.Attacks.Seed = 7
	cfg.Attacks.TotalAttacks = 6000
	cfg.FromDay, cfg.ToDay = 0, 149
	return cfg
}

// BenchmarkNewSession is the set-up every study and setup_s
// sample pays, at the repo benchmark's scale (make bench-session).
func BenchmarkNewSession(b *testing.B) {
	cfg := benchmarkScaleConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewSession(context.Background(), cfg, obs.New()); err != nil {
			b.Fatal(err)
		}
	}
}
