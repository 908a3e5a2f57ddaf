package rsdos

import (
	"io"
	"math/rand/v2"
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
			if a.ID != i+1 {
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

// TestFeedRoundTripProperty: serialization is lossless over random feeds.
func TestFeedRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 0x3d))
		attacks := Infer(DefaultConfig(), randomObs(rng))
		var buf feedBuffer
		if err := WriteFeed(&buf, attacks); err != nil {
			return false
		}
		got, err := ReadFeed(&buf)
		if err != nil {
			return len(attacks) == 0 // the reader rejects empty feeds
		}
		if len(got) != len(attacks) {
			return false
		}
		for i := range got {
			if got[i] != attacks[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// feedBuffer is a minimal io.ReadWriter for the property test.
type feedBuffer struct {
	data []byte
	off  int
}

func (b *feedBuffer) Write(p []byte) (int, error) {
	b.data = append(b.data, p...)
	return len(p), nil
}

func (b *feedBuffer) Read(p []byte) (int, error) {
	if b.off >= len(b.data) {
		return 0, io.EOF
	}
	n := copy(p, b.data[b.off:])
	b.off += n
	return n, nil
}
