package study

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"dnsddos/internal/attacksim"
	"dnsddos/internal/clock"
	"dnsddos/internal/netx"
	"dnsddos/internal/obs"
	"dnsddos/internal/rsdos"
	"dnsddos/internal/scenario"
	"dnsddos/internal/telescope"
)

// TestWindowSetMatchesMap holds the retained-window bitset to the map it
// replaced — one entry per kept window — over random span sets, asking
// about every window from well below the first span to well above the
// last.
func TestWindowSetMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 0x5e7))
	for round := 0; round < 200; round++ {
		base := clock.Window(rng.IntN(100000) - 20000) // negative windows too
		before, after := clock.Window(rng.IntN(80)), clock.Window(rng.IntN(80))
		var spans [][2]clock.Window
		keep := make(map[clock.Window]struct{})
		lo, hi := base, base
		for n := rng.IntN(12); n > 0; n-- {
			start := base + clock.Window(rng.IntN(3000))
			end := start + clock.Window(rng.IntN(40))
			spans = append(spans, [2]clock.Window{start - before, end + after})
			for w := start - before; w <= end+after; w++ {
				keep[w] = struct{}{}
			}
			lo, hi = min(lo, start-before), max(hi, end+after)
		}
		set := newWindowSet(spans)
		for w := lo - 200; w <= hi+200; w++ {
			if _, want := keep[w]; set.has(w) != want {
				t.Fatalf("round %d, spans %v: window %d kept = %v, the map says %v", round, spans, w, set.has(w), want)
			}
		}
		for _, w := range []clock.Window{-1 << 62, 1 << 62} {
			if set.has(w) {
				t.Fatalf("round %d: far window %d is in the set", round, w)
			}
		}
	}
}

// TestSessionFeedMatchesInfer holds the session's feed — inference
// folding the windows synthesis has closed on a second goroutine while
// synthesis still draws — to the one-goroutine build: the observations a
// plain SynthesizeObs draws (then SynthesizeNoise's) and the attacks Infer
// curates from them.
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
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.procs > 0 {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(tc.procs))
			}
			var sess *Session
			if tc.reshape == nil {
				var err error
				if sess, err = NewSession(context.Background(), tc.cfg, obs.New()); err != nil {
					t.Fatal(err)
				}
			} else {
				w := scenario.GenerateWorld(tc.cfg.World)
				sess = &Session{Config: tc.cfg, World: w, Telescope: telescope.NewUCSD(),
					Schedule: tc.reshape(scenario.GenerateSchedule(tc.cfg.Attacks, w))}
				if len(sess.Schedule.Sched.Specs()) == 0 {
					t.Fatal("the reshaped schedule is empty")
				}
				if err := sess.buildFeed(context.Background(), stageTimer(nil), time.Now()); err != nil {
					t.Fatal(err)
				}
			}
			want := scenario.SynthesizeObs(tc.cfg.Synth, sess.World, sess.Schedule.Sched, sess.Telescope, nil)
			if tc.cfg.IncludeNoise {
				want = append(want, scenario.SynthesizeNoise(tc.cfg.Noise, sess.Telescope)...)
			}
			if !reflect.DeepEqual(sess.Obs, want) {
				t.Fatalf("the session's feed differs from SynthesizeObs's (%d vs %d observations)", len(sess.Obs), len(want))
			}
			if got := len(sess.Attacks) == 0; got != tc.wantNone {
				t.Fatalf("%d attacks inferred", len(sess.Attacks))
			}
			if want := rsdos.Infer(tc.cfg.RSDoS, sess.Obs); !reflect.DeepEqual(sess.Attacks, want) {
				t.Errorf("the session's attacks differ from Infer's (%d vs %d)", len(sess.Attacks), len(want))
			}
		})
	}
	t.Run("cancelled", func(t *testing.T) {
		netx.NoGoroutineLeaks(t)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if sess, err := NewSession(ctx, metricsConfig(), obs.New()); sess != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("NewSession on a cancelled context = %v, %v; want nil, %v", sess, err, context.Canceled)
		}
	})
}

// TestFoldBehindPanicReachesCaller: a panic on the helper goroutine — here
// the fold's own, an observation below the window span it was given — is
// re-raised on the caller once synthesis returns, with the helper gone.
func TestFoldBehindPanicReachesCaller(t *testing.T) {
	netx.NoGoroutineLeaks(t)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "window 5") {
			t.Fatalf("foldBehind panicked with %v, want the fold's panic", r)
		}
	}()
	foldBehind(rsdos.NewFold(rsdos.DefaultConfig(), 10, 20), func(progress func([]rsdos.WindowObs, clock.Window)) []rsdos.WindowObs {
		feed := []rsdos.WindowObs{{Window: 5, Packets: 100, Slash16: 50}}
		progress(feed, 5)
		return feed
	})
	t.Fatal("foldBehind returned")
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

// BenchmarkNewSession is the set-up every study, joinworker and setup_s
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
