package core

import (
	"context"

	"dnsddos/internal/rsdos"
)

// withJoinWorkers bounds the sharded engine's worker pool. Production
// always runs the default (0: GOMAXPROCS); only the race and parity tests
// pin a count, so the knob lives here.
func withJoinWorkers(n int) Option {
	return func(p *Pipeline) { p.joinWorkers = n }
}

// Worker is one join pool worker's memory, for the external test package:
// JoinAll joins every shard of the feed's plan on the calling goroutine
// the way a pool worker joins the shards it is handed, reusing the
// worker's buffers from call to call, and returns how many events it
// emitted.
type Worker struct{ jw joinWorker }

func (w *Worker) JoinAll(ctx context.Context, p *Pipeline, attacks []rsdos.Attack) int {
	ji := p.joinIndexFor(attacks)
	w.jw.out = w.jw.out[:0]
	for _, shard := range ji.shards {
		p.joinShard(ctx, ji.aix, shard, &w.jw)
	}
	return len(w.jw.out)
}
