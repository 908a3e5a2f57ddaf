package core

// withJoinWorkers bounds the sharded engine's worker pool. Production
// always runs the default (0: GOMAXPROCS); only the race and parity tests
// pin a count, so the knob lives here.
func withJoinWorkers(n int) Option {
	return func(p *Pipeline) { p.joinWorkers = n }
}
