package distjoin

import (
	"time"

	"dnsddos/internal/obs"
)

// metrics.go is the fleet's observability surface. Every distjoin metric
// is registered Volatile: fleet composition, reassignment counts and
// worker latencies describe one run of the control plane, never the
// deterministic study result, so none of them may leak into the stable
// snapshot embedded in Report.Metrics (which must stay byte-identical to
// a single-process run's).
type fleetMetrics struct {
	reg *obs.Registry

	workersLive     *obs.Gauge // distjoin.workers_live
	workersSuspect  *obs.Gauge // distjoin.workers_suspect
	workersDraining *obs.Gauge // distjoin.workers_draining

	reassignments     *obs.Counter // distjoin.reassignments: tasks re-queued off a suspect/dead/drained worker
	shardRedeliveries *obs.Counter // distjoin.shard_redeliveries: late duplicate results discarded
	sweepDaysDone     *obs.Counter // distjoin.sweep_days_done
	taskFailures      *obs.Counter // distjoin.task_failures: panics + lost workers, pre-quarantine
	framesIn          *obs.Counter // distjoin.frames_in: control frames accepted
}

func newFleetMetrics(reg *obs.Registry) fleetMetrics {
	return fleetMetrics{
		reg:               reg,
		workersLive:       reg.Gauge("distjoin.workers_live", obs.Volatile()),
		workersSuspect:    reg.Gauge("distjoin.workers_suspect", obs.Volatile()),
		workersDraining:   reg.Gauge("distjoin.workers_draining", obs.Volatile()),
		reassignments:     reg.Counter("distjoin.reassignments", obs.Volatile()),
		shardRedeliveries: reg.Counter("distjoin.shard_redeliveries", obs.Volatile()),
		sweepDaysDone:     reg.Counter("distjoin.sweep_days_done", obs.Volatile()),
		taskFailures:      reg.Counter("distjoin.task_failures", obs.Volatile()),
		framesIn:          reg.Counter("distjoin.frames_in", obs.Volatile()),
	}
}

// workerLatency returns the per-worker task latency histogram
// (distjoin.worker_latency.<name>): wall time from assignment to accepted
// result, one histogram per registered worker name.
func (m *fleetMetrics) workerLatency(name string) *obs.Histogram {
	return m.reg.Histogram("distjoin.worker_latency."+name, obs.Volatile())
}

// observeTask records one completed assignment for a worker.
func (m *fleetMetrics) observeTask(name string, since time.Time) {
	m.workerLatency(name).Observe(time.Since(since))
}
