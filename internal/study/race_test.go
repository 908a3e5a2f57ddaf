//go:build race

package study

// raceEnabled reports that the race detector is on: its instrumentation
// changes what a run allocates, so allocation bounds are not checked.
const raceEnabled = true
