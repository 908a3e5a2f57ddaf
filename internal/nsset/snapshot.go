package nsset

import (
	"sort"

	"dnsddos/internal/clock"
)

// snapshot.go flattens an Aggregator into an exported, value-typed form:
// the input a completed day-shard is sealed from (daystore.SealDay,
// EncodeDay). It is one-way — sealed days are read back through the day
// store, never re-aggregated. The flattened form is deterministically
// ordered: the same aggregator contents always produce the same
// Snapshot, and therefore the same sealed bytes.

// WindowSnap pairs one NSSet with the metrics of one 5-minute window.
type WindowSnap struct {
	Key Key
	M   WindowMetrics
}

// BaselineSnap pairs one NSSet with one day baseline.
type BaselineSnap struct {
	Key Key
	B   DayBaseline
}

// Snapshot is a value-typed dump of an Aggregator's contents, ordered by
// (Key, Window) and (Key, Day).
type Snapshot struct {
	Windows   []WindowSnap
	Baselines []BaselineSnap
}

// Snapshot dumps the aggregator's retained windows and baselines.
func (a *Aggregator) Snapshot() Snapshot {
	var s Snapshot
	wkeys := make([]Key, 0, len(a.windows))
	for k := range a.windows {
		wkeys = append(wkeys, k)
	}
	sort.Slice(wkeys, func(i, j int) bool { return wkeys[i] < wkeys[j] })
	for _, k := range wkeys {
		wm := a.windows[k]
		ws := make([]clock.Window, 0, len(wm))
		for w := range wm {
			ws = append(ws, wm[w].Window)
		}
		sort.Slice(ws, func(i, j int) bool { return ws[i] < ws[j] })
		for _, w := range ws {
			s.Windows = append(s.Windows, WindowSnap{Key: k, M: *wm[w]})
		}
	}
	bkeys := make([]Key, 0, len(a.baselines))
	for k := range a.baselines {
		bkeys = append(bkeys, k)
	}
	sort.Slice(bkeys, func(i, j int) bool { return bkeys[i] < bkeys[j] })
	for _, k := range bkeys {
		bm := a.baselines[k]
		ds := make([]clock.Day, 0, len(bm))
		for d := range bm {
			ds = append(ds, d)
		}
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		for _, d := range ds {
			s.Baselines = append(s.Baselines, BaselineSnap{Key: k, B: *bm[d]})
		}
	}
	return s
}
