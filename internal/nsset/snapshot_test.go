package nsset

import (
	"reflect"
	"testing"
	"time"

	"dnsddos/internal/clock"
	"dnsddos/internal/netx"
)

func sampleAggregator() *Aggregator {
	a := NewAggregator()
	k1 := KeyOf([]netx.Addr{netx.MustParseAddr("192.0.2.1")})
	k2 := KeyOf([]netx.Addr{netx.MustParseAddr("192.0.2.2"), netx.MustParseAddr("192.0.2.3")})
	t0 := clock.Day(3).Start()
	a.Add(k1, t0.Add(time.Hour), StatusOK, 10*time.Millisecond)
	a.Add(k1, t0.Add(time.Hour+time.Minute), StatusOK, 30*time.Millisecond)
	a.Add(k1, t0.Add(7*time.Hour), StatusTimeout, 0)
	a.Add(k2, t0.Add(2*time.Hour), StatusServFail, 0)
	a.Add(k2, t0.Add(26*time.Hour), StatusOK, 5*time.Millisecond) // next day
	return a
}

func aggEqual(a, b *Aggregator) bool {
	return reflect.DeepEqual(a.Snapshot(), b.Snapshot())
}

// TestSnapshotRoundTrip: equal aggregators produce equal snapshots, however
// they were filled, and a snapshot row is the value the aggregator serves.
func TestSnapshotRoundTrip(t *testing.T) {
	a := sampleAggregator()
	merged := NewAggregator()
	merged.Merge(sampleAggregator())
	if !aggEqual(a, merged) {
		t.Fatalf("equal aggregators, different snapshots:\n%+v\nvs\n%+v", a.Snapshot(), merged.Snapshot())
	}
	snap := a.Snapshot()
	if len(snap.Windows) == 0 || len(snap.Baselines) == 0 {
		t.Fatalf("snapshot dropped rows: %+v", snap)
	}
	for _, ws := range snap.Windows {
		if w := a.Window(ws.Key, ws.M.Window); w == nil || *w != ws.M {
			t.Errorf("window row %+v differs from the aggregator's %+v", ws.M, w)
		}
	}
	for _, bs := range snap.Baselines {
		if b, ok := a.Baseline(bs.Key, bs.B.Day); !ok || b != bs.B {
			t.Errorf("baseline row %+v differs from the aggregator's %+v", bs.B, b)
		}
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	a, b := sampleAggregator(), sampleAggregator()
	if !reflect.DeepEqual(a.Snapshot(), b.Snapshot()) {
		t.Fatal("identical aggregators produced different snapshots")
	}
}
