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

// withShardBits overrides the /16 shard width; the race tests set 32 for
// one shard per victim.
func withShardBits(bits int) Option {
	return func(p *Pipeline) { p.shardBits = bits }
}

// Plan is one feed's join plan, for the external test package.
type Plan [][]victimRun

// NewPlan builds the feed's join plan the way EventsContext does.
func NewPlan(p *Pipeline, attacks []rsdos.Attack) Plan { return p.plan(attacks) }

// Worker is one join pool worker's memory, for the external test package:
// JoinAll joins every shard of a plan on the calling goroutine the way a
// pool worker joins the shards it is handed, reusing the worker's buffers
// from call to call, and returns how many events it emitted.
type Worker struct{ jw joinWorker }

func (w *Worker) JoinAll(ctx context.Context, p *Pipeline, attacks []rsdos.Attack, plan Plan) int {
	w.jw.out = w.jw.out[:0]
	for _, shard := range plan {
		p.joinShard(ctx, attacks, shard, &w.jw)
	}
	return len(w.jw.out)
}
