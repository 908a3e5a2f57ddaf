package rsdos

import (
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"dnsddos/internal/clock"
	"dnsddos/internal/netx"
	"dnsddos/internal/packet"
)

// randomObs draws a random observation batch over a handful of victims.
func randomObs(rng *rand.Rand) []WindowObs {
	n := rng.IntN(60)
	out := make([]WindowObs, 0, n)
	for i := 0; i < n; i++ {
		o := WindowObs{
			Window:  clock.Window(rng.IntN(50)),
			Victim:  netx.Addr(0x78000000 + uint32(rng.IntN(4))),
			Packets: int64(rng.IntN(200)),
			Slash16: rng.IntN(192) + 1,
			Proto:   packet.ProtoTCP,
		}
		o.PeakPPM = float64(o.Packets) / 5
		o.UniqueDsts = o.Packets
		if rng.IntN(4) > 0 {
			o.Ports = []PortCount{{uint16(1 + rng.IntN(1000)), o.Packets}}
		}
		out = append(out, o)
	}
	return out
}

// TestInferInvariants checks structural invariants of the inference over
// random inputs:
//   - attack windows ordered, IDs sequential;
//   - per victim, attacks are disjoint and separated by more than the gap;
//   - every attack meets the curation thresholds;
//   - total packets are conserved (sum of qualifying observations).
func TestInferInvariants(t *testing.T) {
	cfg := DefaultConfig()
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0x1f))
		obs := randomObs(rng)
		attacks := Infer(cfg, obs)

		// qualifying-observation packet total per victim
		qualTotal := map[netx.Addr]int64{}
		for _, o := range obs {
			if o.Packets >= cfg.MinPackets && o.Slash16 >= cfg.MinSlash16 {
				qualTotal[o.Victim] += o.Packets
			}
		}
		attackTotal := map[netx.Addr]int64{}
		lastEnd := map[netx.Addr]clock.Window{}
		for i, a := range attacks {
			if int(a.ID) != i+1 {
				return false
			}
			if a.EndWindow < a.StartWindow {
				return false
			}
			if a.TotalPackets < cfg.MinTotalPackets {
				return false
			}
			if prev, ok := lastEnd[a.Victim]; ok {
				if int64(a.StartWindow-prev) <= int64(cfg.MaxGapWindows)+1 {
					return false // should have merged
				}
			}
			lastEnd[a.Victim] = a.EndWindow
			attackTotal[a.Victim] += a.TotalPackets
		}
		// conservation: attacks partition qualifying packets except for
		// groups dropped by MinTotalPackets (only possible when a group
		// is a single small window; with MinPackets == MinTotalPackets
		// nothing is dropped)
		for v, want := range qualTotal {
			if attackTotal[v] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestInferOrderInvariance: shuffling the observation order never changes
// the result.
func TestInferOrderInvariance(t *testing.T) {
	cfg := DefaultConfig()
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0x2e))
		obs := randomObs(rng)
		a := Infer(cfg, obs)
		shuffled := make([]WindowObs, len(obs))
		copy(shuffled, obs)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		b := Infer(cfg, shuffled)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			x, y := a[i], b[i]
			if x.Victim != y.Victim || x.StartWindow != y.StartWindow || x.EndWindow != y.EndWindow ||
				x.TotalPackets != y.TotalPackets || x.PeakPPM != y.PeakPPM || x.UniquePorts != y.UniquePorts {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestFoldClosedAtWatermarksMatchesReference folds generated feeds the way
// a synthesizer hands them over: components in start order, each giving
// observations for its own run of windows, with the fold closed now and
// then at a random watermark no later observation lies below. A component
// attacks one of twelve victims, a pool that drifts with the component's
// place, so victims recur while near and then leave. Port lists run from
// none to past a candidate's own room, so recycled candidates see longer
// and shorter lists than the ones they held. The attacks must be the
// reference's over the whole feed, and the fold must never hold more runs
// open than the taken feed has spans the watermarks leave open, counted
// after every observation: a Close that finalizes nothing, or a bridge
// that keeps the merged run's storage, holds more.
func TestFoldClosedAtWatermarksMatchesReference(t *testing.T) {
	portPool := []uint16{22, 53, 80, 123, 443, 3389, 8080, 27015, 5060, 11211}
	for seed := uint64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0xf01d))
		var feed []WindowObs
		// component c's observations start at feed position marks[c], and
		// its windows at starts[c]
		var marks []int
		var starts []clock.Window
		start := clock.Window(rng.IntN(100))
		for c := 20 + rng.IntN(200); c > 0; c-- {
			start += clock.Window(rng.IntN(4))
			marks, starts = append(marks, len(feed)), append(starts, start)
			victim := netx.Addr(0x78000000 + uint32(len(marks)/2+rng.IntN(12)))
			for w, end := start, start+clock.Window(rng.IntN(30)); w <= end; w++ {
				o := WindowObs{Window: w, Victim: victim, Proto: packet.ProtoTCP,
					Packets: int64(rng.IntN(8)) * 25, Slash16: rng.IntN(40), UniqueDsts: int64(rng.IntN(500))}
				o.PeakPPM = float64(o.Packets) / 5
				for k := rng.IntN(len(portPool) + 1); k > 0; k-- {
					o.Ports = AddPort(o.Ports, portPool[rng.IntN(len(portPool))], int64(1+rng.IntN(3))*10)
				}
				feed = append(feed, o)
			}
		}
		for _, cfg := range []Config{DefaultConfig(), {MaxGapWindows: 2}} {
			reach := clock.Window(cfg.MaxGapWindows) + 1
			// taken holds each victim's qualifying windows taken and not
			// finalized, ascending; the victim's open runs are its
			// floorless spans over them (the ones below the packet floor
			// included), counted by runs
			taken := map[netx.Addr][]clock.Window{}
			runs := func(ws []clock.Window) int {
				n := min(len(ws), 1)
				for i := 1; i < len(ws); i++ {
					if ws[i]-ws[i-1] > reach {
						n++
					}
				}
				return n
			}
			f := NewFold(cfg)
			closed := clock.Window(math.MinInt64)
			open, peak, c := 0, 0, 0
			for p := range feed {
				if c < len(marks) && marks[c] == p {
					// a watermark at or below this component's start,
					// and not below the one before
					if rng.IntN(3) == 0 {
						w := max(closed, starts[c]-clock.Window(rng.IntN(3)))
						f.Close(w)
						closed = w
						// a span whose last window + reach lies below w
						// is finalized; a victim's spans ascend, so the
						// finalized ones are a prefix
						for v, ws := range taken {
							i := 0
							for j := range ws {
								if j+1 == len(ws) || ws[j+1]-ws[j] > reach {
									if ws[j]+reach >= w {
										break
									}
									i = j + 1
								}
							}
							open -= runs(ws[:i])
							taken[v] = ws[i:]
						}
					}
					c++
				}
				f.Take(&feed[p])
				if o := &feed[p]; f.qualifies(o) {
					ws := taken[o.Victim]
					if i, found := slices.BinarySearch(ws, o.Window); !found {
						open -= runs(ws)
						ws = slices.Insert(ws, i, o.Window)
						open += runs(ws)
						taken[o.Victim] = ws
					}
					peak = max(peak, open)
				}
			}
			got, want := f.Finish(), inferReference(cfg, feed)
			if len(want) == 0 {
				t.Fatalf("seed %d: the reference inferred no attack", seed)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, %+v: feed differs from the reference (%d vs %d attacks)", seed, cfg, len(got), len(want))
			}
			if f.PeakOpen() == 0 || f.PeakOpen() > peak {
				t.Fatalf("seed %d, %+v: the fold held %d runs open at once, the taken feed at most %d", seed, cfg, f.PeakOpen(), peak)
			}
		}
	}
}
