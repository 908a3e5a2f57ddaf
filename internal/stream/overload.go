package stream

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"dnsddos/internal/checkpoint"
	"dnsddos/internal/clock"
	"dnsddos/internal/obs"
	"dnsddos/internal/rsdos"
)

// overload.go: the admission-control and backlog tier behind Offer
// (DESIGN §3.7). Closed window batches no longer jump straight into the
// join: they enter a bounded FIFO whose depth drives an explicit
// degradation ladder, and whose tail spills to disk past a high-water
// mark so a sustained burst costs disk instead of RSS. Every decision
// here is a function of stream time and counters — never the wall clock —
// so a seeded replay sheds identically on every run.
//
// The ladder, by queue depth relative to MaxBacklog:
//
//	level 0  < 1/2        normal intake
//	level 1  ≥ 1/2        shed late packets: anything for a window older
//	                      than the newest one seen is dropped (policy ≥ shed-late)
//	level 2  ≥ 3/4        sample: only 1 in SampleEvery packets admitted
//	                      (policy ≥ shed-sample); late shedding continues
//	level 3  ≥ MaxBacklog pause: Offer refuses everything with
//	                      ErrBackpressure until the backlog drains (always
//	                      enforced — the memory bound is not a policy choice)
//
// Rungs 1 and 2 trade observation completeness for survival and are
// opt-in via ShedPolicy; rung 3 only refuses intake, never corrupts
// state, so a caller that waits and retries loses nothing.

// ErrBackpressure is returned by Offer while the backlog is at
// MaxBacklog: the pipeline is pausing intake. The packet was not
// consumed; the stream is not wedged — draining continues on every call,
// and the caller may retry, shed, or block.
var ErrBackpressure = errors.New("stream: backpressure: window backlog at capacity")

// ShedPolicy selects which rungs of the degradation ladder may drop
// observations. The pause rung is independent of policy.
type ShedPolicy int

const (
	// ShedNone never drops observations; overload is handled by spill
	// and, at the hard bound, backpressure alone.
	ShedNone ShedPolicy = iota
	// ShedLate enables rung 1: under pressure, packets for any window
	// older than the newest seen are dropped.
	ShedLate
	// ShedSample enables rungs 1 and 2: under heavy pressure only one in
	// SampleEvery packets is admitted.
	ShedSample
)

func (s ShedPolicy) String() string {
	switch s {
	case ShedLate:
		return "late"
	case ShedSample:
		return "sample"
	default:
		return "none"
	}
}

// ParseShedPolicy maps the CLI spelling to a ShedPolicy.
func ParseShedPolicy(s string) (ShedPolicy, error) {
	switch s {
	case "none", "":
		return ShedNone, nil
	case "late":
		return ShedLate, nil
	case "sample":
		return ShedSample, nil
	}
	return ShedNone, fmt.Errorf("stream: unknown shed policy %q (want none, late or sample)", s)
}

// Overload configures the admission and backlog tier. The zero value
// disables all of it: unbounded in-memory backlog, no bucket, no spill,
// immediate drain — the pre-overload pipeline, byte for byte.
type Overload struct {
	// MaxBacklog bounds the closed-batch queue (memory + spill, in
	// batches). At the bound Offer returns ErrBackpressure. <= 0 means
	// unbounded, and the ladder never engages.
	MaxBacklog int
	// HighWater is the in-memory batch count above which closed batches
	// spill to disk (requires SpillDir). <= 0 disables spilling.
	HighWater int
	// SpillDir is where the spill file lives. Empty disables spilling.
	SpillDir string
	// Policy selects which shedding rungs may engage (default ShedNone).
	Policy ShedPolicy
	// AdmitRate, when > 0, is a token-bucket admission bound in packets
	// per second of *stream time* — the front gate ahead of the ladder.
	AdmitRate float64
	// AdmitBurst is the bucket headroom (default AdmitRate).
	AdmitBurst float64
	// SampleEvery is rung 2's thinning factor: 1 in SampleEvery packets
	// admitted (default 4, minimum 2).
	SampleEvery int
	// DrainEvery throttles the join: one queued batch is joined and
	// emitted every DrainEvery Offers. <= 1 drains the whole queue on
	// every Offer (the immediate mode production uses; throttling exists
	// so the overload soak can build a real backlog deterministically).
	DrainEvery int
}

// WithOverload installs the admission-control and backlog-spill tier.
func WithOverload(o Overload) Option {
	if o.SampleEvery < 2 {
		o.SampleEvery = 4
	}
	return func(p *Pipeline) { p.ov = o; p.ovEnabled = true }
}

// closedBatch is one queued emission step: the frontier it advances to
// and the observations of the windows that advance closed. Serialized
// with the checkpoint frame codec when spilled.
type closedBatch struct {
	CT  clock.Window
	Obs []rsdos.WindowObs
}

// backlogQueue is the bounded FIFO of closed batches: an in-memory head
// capped at highWater and a disk tail of checkpoint frames laid end to end
// (push appends at writeOff, pop reads at readOff). All in-memory entries
// predate all spilled ones — once spilling starts, every push goes to disk
// until the file fully drains, so pop order is arrival order. The spill
// file is scratch state, not a checkpoint: a resumed run rebuilds the queue
// by replaying input, so the file is deleted at construction and on Close.
type backlogQueue struct {
	mem     []closedBatch
	memHead int

	highWater         int
	spillPath         string
	f                 *os.File
	readOff, writeOff int64
	spilled           int

	spilledTotal int64 // lifetime batches written to disk
}

func newBacklogQueue(highWater int, spillDir string) *backlogQueue {
	q := &backlogQueue{highWater: highWater}
	if highWater > 0 && spillDir != "" {
		q.spillPath = filepath.Join(spillDir, "stream-backlog.spill")
		// stale spill from a previous run is scratch, never state
		os.Remove(q.spillPath)
	}
	return q
}

func (q *backlogQueue) memLen() int     { return len(q.mem) - q.memHead }
func (q *backlogQueue) spilledLen() int { return q.spilled }
func (q *backlogQueue) depth() int      { return q.memLen() + q.spilledLen() }
func (q *backlogQueue) spillActive() bool {
	return q.spilledLen() > 0
}

func (q *backlogQueue) push(b closedBatch) error {
	if q.spillPath != "" && (q.spillActive() || q.memLen() >= q.highWater) {
		return q.spillPush(b)
	}
	q.mem = append(q.mem, b)
	return nil
}

func (q *backlogQueue) spillPush(b closedBatch) error {
	if q.f == nil {
		f, err := os.OpenFile(q.spillPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return fmt.Errorf("stream: opening spill file: %w", err)
		}
		q.f = f
	}
	frame, err := checkpoint.EncodeFrame(&b)
	if err != nil {
		return fmt.Errorf("stream: spilling batch %v: %w", b.CT, err)
	}
	if _, err := q.f.WriteAt(frame, q.writeOff); err != nil {
		return fmt.Errorf("stream: spilling batch %v: %w", b.CT, err)
	}
	q.writeOff += int64(len(frame))
	q.spilled++
	q.spilledTotal++
	return nil
}

// pop removes the oldest batch; the boolean is false when the queue is
// empty. Draining the last spilled batch resets and truncates the file,
// re-arming the in-memory head.
func (q *backlogQueue) pop() (closedBatch, bool, error) {
	if q.memLen() > 0 {
		b := q.mem[q.memHead]
		q.mem[q.memHead] = closedBatch{}
		q.memHead++
		if q.memHead == len(q.mem) {
			q.mem, q.memHead = q.mem[:0], 0
		}
		return b, true, nil
	}
	if q.spilled > 0 {
		r := io.NewSectionReader(q.f, q.readOff, q.writeOff-q.readOff)
		var b closedBatch
		if err := checkpoint.ReadFrame(r, &b); err != nil {
			return closedBatch{}, false, fmt.Errorf("stream: reading spilled batch: %w", err)
		}
		// ReadFrame consumed exactly one frame; a section reader's seek to
		// its current offset cannot fail
		n, _ := r.Seek(0, io.SeekCurrent)
		q.readOff += n
		q.spilled--
		if q.spilled == 0 {
			q.readOff, q.writeOff = 0, 0
			if err := q.f.Truncate(0); err != nil {
				return closedBatch{}, false, fmt.Errorf("stream: truncating drained spill: %w", err)
			}
		}
		return b, true, nil
	}
	return closedBatch{}, false, nil
}

// close releases and deletes the spill file.
func (q *backlogQueue) close() error {
	if q.f == nil {
		return nil
	}
	err := q.f.Close()
	q.f = nil
	if rmErr := os.Remove(q.spillPath); rmErr != nil && err == nil {
		err = rmErr
	}
	return err
}

// overloadMetrics is the overload.* instrument set — volatile, like all
// stream instrumentation: shed counts under a given config are
// deterministic, but they describe this run's intake, not the study
// result.
type overloadMetrics struct {
	level        *obs.Gauge
	transitions  *obs.Counter
	admitDenied  *obs.Counter
	shedLate     *obs.Counter
	sampledOut   *obs.Counter
	pausedOffers *obs.Counter
	backlog      *obs.Gauge
	memBatches   *obs.Gauge
	spilled      *obs.Gauge
	spills       *obs.Counter
	spillBytes   *obs.Gauge
}

func newOverloadMetrics(reg *obs.Registry) overloadMetrics {
	return overloadMetrics{
		level:        reg.Gauge("overload.level", obs.Volatile()),
		transitions:  reg.Counter("overload.level_transitions", obs.Volatile()),
		admitDenied:  reg.Counter("overload.admit_denied", obs.Volatile()),
		shedLate:     reg.Counter("overload.shed_late_packets", obs.Volatile()),
		sampledOut:   reg.Counter("overload.sampled_out", obs.Volatile()),
		pausedOffers: reg.Counter("overload.paused_offers", obs.Volatile()),
		backlog:      reg.Gauge("overload.backlog_batches", obs.Volatile()),
		memBatches:   reg.Gauge("overload.mem_batches", obs.Volatile()),
		spilled:      reg.Gauge("overload.spilled_batches", obs.Volatile()),
		spills:       reg.Counter("overload.spills", obs.Volatile()),
		spillBytes:   reg.Gauge("overload.spill_bytes", obs.Volatile()),
	}
}
