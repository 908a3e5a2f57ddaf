package rsdos

import (
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"dnsddos/internal/clock"
	"dnsddos/internal/netx"
	"dnsddos/internal/packet"
)

// denseFeed draws windows 0..windows-1 of perWindow observations each, as
// the steps a synthesizer hands over: step s holds the last three
// quarters of window s's observations and the first quarter of window
// s+1's, shuffled together, so once step s is taken no later observation
// lies below window s+1. Each window draws its victims from the three in
// five of a pool of the given size that are active there, so a window
// holds several observations of most of its victims and a victim's
// attacks end and start again. The pool spans the address space, 0 and
// 255.255.255.255 included. Nine observations in ten qualify under
// DefaultConfig.
func denseFeed(seed uint64, windows, perWindow, victims int) [][]WindowObs {
	rng := rand.New(rand.NewPCG(seed, 0xde75e))
	pool := []netx.Addr{0, 0xffffffff}
	for len(pool) < victims {
		pool = append(pool, netx.Addr(rng.Uint32()))
	}
	portPool := []uint16{22, 53, 80, 123, 443, 3389, 8080, 27015}
	protoPool := []packet.Protocol{packet.ProtoICMP, packet.ProtoTCP, packet.ProtoUDP}
	byWindow := make([][]WindowObs, windows)
	for w := range byWindow {
		var active []netx.Addr
		for _, v := range pool {
			if rng.IntN(5) < 3 {
				active = append(active, v)
			}
		}
		for range perWindow {
			o := WindowObs{
				Window:     clock.Window(w),
				Victim:     active[rng.IntN(len(active))],
				Proto:      protoPool[rng.IntN(len(protoPool))],
				Packets:    25 + int64(rng.IntN(200)),
				Slash16:    8 + rng.IntN(100),
				UniqueDsts: int64(rng.IntN(500)),
			}
			if rng.IntN(10) == 0 {
				o.Packets = int64(rng.IntN(25))
			}
			o.PeakPPM = float64(o.Packets) / float64(1+rng.IntN(5))
			for k := rng.IntN(4); k > 0; k-- {
				o.Ports = AddPort(o.Ports, portPool[rng.IntN(len(portPool))], int64(1+rng.IntN(3))*10)
			}
			byWindow[w] = append(byWindow[w], o)
		}
	}
	q := perWindow / 4
	steps := make([][]WindowObs, windows)
	for s := range steps {
		lo := q
		if s == 0 {
			lo = 0
		}
		steps[s] = slices.Clone(byWindow[s][lo:])
		if s+1 < windows {
			steps[s] = append(steps[s], byWindow[s+1][:q]...)
		}
		rng.Shuffle(len(steps[s]), func(i, j int) { steps[s][i], steps[s][j] = steps[s][j], steps[s][i] })
	}
	return steps
}

// foldSteps folds the steps, closing the windows each step completes.
func foldSteps(cfg Config, steps [][]WindowObs) []Attack {
	f := NewFold(cfg)
	for s := range steps {
		for i := range steps[s] {
			f.Take(&steps[s][i])
		}
		f.Close(clock.Window(s + 1))
	}
	return f.Finish()
}

// TestFoldDenseWindowsMatchReference folds windows of the density the
// paper's attack count gives (≈ 524 observations a window): every window
// holds at least 500 qualifying observations on at least 200 victims,
// most victims more than once, in shuffled arrival order. The fold's
// attacks must be the reference's, which orders the feed by (Window,
// Victim) with a stable sort: within a victim the observation that
// arrived first sets a new attack's FirstPort.
func TestFoldDenseWindowsMatchReference(t *testing.T) {
	cfg := DefaultConfig()
	steps := denseFeed(1, 12, 640, 500)
	feed := slices.Concat(steps...)
	qual := map[clock.Window]int{}
	seen := map[clock.Window]map[netx.Addr]int{}
	for i := range feed {
		o := &feed[i]
		if o.Packets < cfg.MinPackets || o.Slash16 < cfg.MinSlash16 {
			continue
		}
		qual[o.Window]++
		if seen[o.Window] == nil {
			seen[o.Window] = map[netx.Addr]int{}
		}
		seen[o.Window][o.Victim]++
	}
	for w := clock.Window(0); w < 12; w++ {
		ties := 0
		for _, n := range seen[w] {
			if n > 1 {
				ties++
			}
		}
		if qual[w] < 500 || len(seen[w]) < 200 || ties < 100 {
			t.Fatalf("window %d: %d qualifying observations on %d victims, %d of them more than once; want ≥ 500, ≥ 200, ≥ 100",
				w, qual[w], len(seen[w]), ties)
		}
	}
	got, want := foldSteps(cfg, steps), inferReference(cfg, feed)
	if len(want) == 0 {
		t.Fatal("the reference inferred no attack")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("feed differs from the reference (%d vs %d attacks)", len(got), len(want))
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Logf("first difference at %d:\n got %+v\nwant %+v", i, got[i], want[i])
				break
			}
		}
	}
}

// takeAnyOrder folds feed in an order of its own and returns the attacks
// and the order the observations were taken in. It closes the fold at
// watermarks a few windows apart; before each close it takes, in a
// shuffled order, every observation left below the watermark and one in
// three of those above it, so an observation is taken anywhere above the
// last watermark, a component's later windows often before its earlier
// ones.
func takeAnyOrder(rng *rand.Rand, cfg Config, feed []WindowObs) (attacks []Attack, taken []WindowObs) {
	rest := slices.Clone(feed)
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	f := NewFold(cfg)
	w := clock.Window(math.MaxInt64)
	for i := range rest {
		w = min(w, rest[i].Window)
	}
	for ; len(rest) > 0; w += clock.Window(1 + rng.IntN(8)) {
		kept := rest[:0]
		for i := range rest {
			if rest[i].Window < w || rng.IntN(3) == 0 {
				f.Take(&rest[i])
				taken = append(taken, rest[i])
			} else {
				kept = append(kept, rest[i])
			}
		}
		rest = kept
		f.Close(w)
	}
	return f.Finish(), taken
}

// TestFoldAnyOrderMatchesReference: a fold folds each observation into
// its victim's run as it arrives, so the order they arrive in above the
// watermark cannot change the attacks but for which of two observations
// of a run's first window sets FirstPort, the earlier to arrive. Generated
// feeds taken in any order (takeAnyOrder) must give the reference's
// attacks over the feed in the order it was taken, and so must three
// hand-built feeds: an observation that bridges two runs, whose earlier
// run's first window keeps FirstPort; two observations of a run's first
// window, taken after a later window; and two runs of five ports each
// bridged by a sixth, past a candidate's own room of eight.
func TestFoldAnyOrderMatchesReference(t *testing.T) {
	loose := Config{MaxGapWindows: 2} // every window qualifies, the empty ones too
	for seed := uint64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0xa0))
		for _, feed := range [][]WindowObs{tieFeed(seed, 3000), slices.Concat(denseFeed(seed, 12, 200, 300)...)} {
			for _, cfg := range []Config{DefaultConfig(), loose} {
				got, taken := takeAnyOrder(rng, cfg, feed)
				if want := inferReference(cfg, taken); len(want) == 0 || !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d, %+v: %d attacks, the reference %d", seed, cfg, len(got), len(want))
				}
			}
		}
	}

	ports := func(from, to uint16) []PortCount {
		var out []PortCount
		for p := from; p <= to; p++ {
			out = append(out, PortCount{Port: p, N: int64(p)})
		}
		return out
	}
	at := func(w clock.Window, ports []PortCount) WindowObs {
		return WindowObs{Window: w, Victim: netx.MustParseAddr("192.0.2.1"), Proto: packet.ProtoUDP,
			Packets: 100, PeakPPM: float64(w), Slash16: 50, UniqueDsts: int64(w), Ports: ports}
	}
	for _, tc := range []struct {
		name string
		obs  []WindowObs
	}{
		{"a bridge", []WindowObs{at(16, ports(443, 443)), at(10, ports(53, 53)), at(13, ports(80, 80))}},
		{"two at the first window", []WindowObs{at(11, ports(80, 80)), at(10, ports(53, 53)), at(10, ports(443, 443))}},
		{"a merge past eight ports", []WindowObs{at(10, ports(1, 5)), at(16, ports(6, 10)), at(13, ports(11, 11))}},
	} {
		got, want := Infer(DefaultConfig(), tc.obs), inferReference(DefaultConfig(), tc.obs)
		if len(got) != 1 || !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got %+v\nwant %+v", tc.name, got, want)
		}
	}
}

// BenchmarkFoldDenseWindow folds 16 windows of 4,096 observations on a
// pool of 2,048 victims (make bench-session, and once in make test): a
// take that scans a victim's open runs in quadratic time shows here as
// ns/op, where the session's windows at the benchmark's scale hold ≈ 3
// observations.
func BenchmarkFoldDenseWindow(b *testing.B) {
	steps := denseFeed(1, 16, 4096, 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if len(foldSteps(DefaultConfig(), steps)) == 0 {
			b.Fatal("no attack inferred")
		}
	}
}
