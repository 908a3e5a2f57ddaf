//go:build race

package dnswire

// raceEnabled reports that the race detector is on: sync.Pool then sheds
// a quarter of its Puts on purpose, so exact allocation counts of pooled
// paths do not hold.
const raceEnabled = true
