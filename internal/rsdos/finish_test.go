package rsdos_test

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"dnsddos/internal/clock"
	"dnsddos/internal/rsdos"
	"dnsddos/internal/study"
)

// step is a run of a feed as a fold takes it: its observations, then a
// close of the windows below closed.
type step struct {
	obs    []rsdos.WindowObs
	closed clock.Window
}

// sessionSteps draws a study session's feed, cut at each watermark
// Session.Feed announces, its observations and ports copied.
func sessionSteps(t *testing.T, cfg study.Config) []step {
	t.Helper()
	sess, err := study.NewSession(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var steps []step
	var cur []rsdos.WindowObs
	sess.Feed(func(o *rsdos.WindowObs) {
		c := *o
		c.Ports = slices.Clone(o.Ports)
		cur = append(cur, c)
	}, func(w clock.Window) {
		steps = append(steps, step{obs: cur, closed: w})
		cur = nil
	})
	return append(steps, step{obs: cur, closed: clock.Window(1 << 62)})
}

// foldReserved folds steps into a fold that reserved room for reserve
// attacks, closing after each step, and returns the fold unfinished.
func foldReserved(cfg rsdos.Config, steps []step, reserve int) *rsdos.Fold {
	f := rsdos.NewFold(cfg)
	f.Reserve(reserve)
	for _, s := range steps {
		for i := range s.obs {
			f.Take(&s.obs[i])
		}
		f.Close(s.closed)
	}
	return f
}

// TestFinishMatchesInfer: Finish sorts and numbers the attacks where the
// fold kept them, so a fold closed step by step must return Infer's
// attacks and the reference's, IDs included, whether it reserved room
// for exactly its attacks, for half of them or for none. The feeds are
// metricsConfig's study feed (QuickConfig at 1,500 domains and 1,500
// attacks), the same with the IBR noise merged in, generated dense feeds
// closed window by window, and random feeds closed once, at the end. With
// the exact reserve, Finish allocates nothing.
func TestFinishMatchesInfer(t *testing.T) {
	metrics := study.QuickConfig()
	metrics.World.Domains = 1500
	metrics.Attacks.TotalAttacks = 1500
	noisy := metrics
	noisy.IncludeNoise = true
	feeds := map[string][]step{
		"metricsConfig": sessionSteps(t, metrics),
		"noise":         sessionSteps(t, noisy),
	}
	for seed := uint64(1); seed <= 3; seed++ {
		var dense []step
		for s, obs := range rsdos.DenseFeed(seed, 12, 200, 300) {
			dense = append(dense, step{obs: obs, closed: clock.Window(s + 1)})
		}
		feeds[fmt.Sprintf("dense %d", seed)] = dense
		feeds[fmt.Sprintf("random %d", seed)] = []step{{obs: rsdos.TieFeed(seed, 3000), closed: clock.Window(1 << 62)}}
	}
	cfg := rsdos.DefaultConfig()
	for name, steps := range feeds {
		var feed []rsdos.WindowObs
		for _, s := range steps {
			feed = append(feed, s.obs...)
		}
		want := rsdos.Infer(cfg, feed)
		if len(want) == 0 {
			t.Fatalf("%s: Infer found no attack", name)
		}
		if ref := rsdos.InferReference(cfg, feed); !reflect.DeepEqual(want, ref) {
			t.Fatalf("%s: Infer's %d attacks differ from the reference's %d", name, len(want), len(ref))
		}
		for _, reserve := range []int{len(want), len(want) / 2, 0} {
			if got := foldReserved(cfg, steps, reserve).Finish(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s, room for %d: the fold's %d attacks differ from Infer's %d", name, reserve, len(got), len(want))
			}
		}
		const runs = 3
		folds := make([]*rsdos.Fold, runs+1)
		for i := range folds {
			folds[i] = foldReserved(cfg, steps, len(want))
		}
		next := 0
		if allocs := testing.AllocsPerRun(runs, func() {
			folds[next].Finish()
			next++
		}); allocs != 0 {
			t.Errorf("%s: Finish of a fold with room for its %d attacks allocated %v objects, want 0", name, len(want), allocs)
		}
	}
}
