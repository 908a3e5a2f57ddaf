package nsset

import "slices"

// snapshot.go flattens an Aggregator into an exported, value-typed form.
// No run path goes through it any more: a completed day-shard is sealed
// straight from its day table (Aggregator.WalkDay, driven by
// daystore.AppendDay). The Snapshot survives as what the direct seal is
// measured against — daystore.EncodeDay of a Snapshot is the oracle whose
// bytes AppendDay must reproduce, and the one seal entry a test can hand
// malformed rows — as the equality tests compare aggregators by, and as
// what the repository benchmark's traced pass still times. It is one-way:
// sealed days are read back through the day store, never re-aggregated.
// The day tables, the flattened form and the sealed file share one
// ordering, (Key, Day, Window): Snapshot walks the table's IDs in key
// order and copies rows whose windows are already linked in order, and
// daystore's snapshot-fed seal relies on that order — it merges the two
// lists in one pass and refuses a row that breaks it. The same aggregator
// contents therefore always produce the same Snapshot and the same sealed
// bytes.

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
	for _, t := range a.days {
		wins += t.nwin
		for id := range t.rows {
			if t.measured(ID(id)) != nil {
				rows++
			}
		}
	}
	// sized once (grown by append the lists cost several times their
	// payload); Grow leaves an empty list nil
	var s Snapshot
	s.Baselines = slices.Grow(s.Baselines, rows)
	s.Windows = slices.Grow(s.Windows, wins)
	keys, sorted := a.tab.view()
	for _, id := range sorted {
		for _, t := range a.days {
			r := t.measured(id)
			if r == nil {
				continue
			}
			s.Baselines = append(s.Baselines, BaselineSnap{Key: keys[id], B: r.base})
			for n := r.head; n != nil; n = n.next {
				s.Windows = append(s.Windows, WindowSnap{Key: keys[id], M: n.m})
			}
		}
	}
	return s
}
