package nsset

import "slices"

// snapshot.go flattens an Aggregator into an exported, value-typed form:
// the input a completed day-shard is sealed from (daystore.SealDay,
// EncodeDay). It is one-way — sealed days are read back through the day
// store, never re-aggregated. The aggregator's table, the flattened form
// and the sealed file share one ordering, (Key, Day, Window): Snapshot
// only sorts the key set and copies rows that are already in order, and
// daystore's seal relies on that order — it merges the two lists in one
// pass and refuses a row that breaks it. The same aggregator contents
// therefore always produce the same Snapshot and the same sealed bytes.

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
	var rows, wins int
	for _, days := range a.table {
		rows += len(days)
		for _, r := range days {
			wins += len(r.wins)
		}
	}
	// sized once (grown by append the lists cost several times their
	// payload); Grow leaves an empty list nil
	var s Snapshot
	s.Baselines = slices.Grow(s.Baselines, rows)
	s.Windows = slices.Grow(s.Windows, wins)
	for _, k := range a.Keys() {
		for _, r := range a.table[k] {
			s.Baselines = append(s.Baselines, BaselineSnap{Key: k, B: r.base})
			for _, m := range r.wins {
				s.Windows = append(s.Windows, WindowSnap{Key: k, M: *m})
			}
		}
	}
	return s
}
