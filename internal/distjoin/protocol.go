// Package distjoin is the fault-tolerant distributed control plane of the
// study (DESIGN §3.6): a coordinator owns the work plan — the per-day
// measurement sweeps — and a fleet of workers executes it across
// processes. The join is not distributed: once every day is settled the
// coordinator joins the sealed days in process, as study.RunContext does.
//
// The design leans on one property the rest of the repo already
// guarantees: every phase of a study run up to the sweeps is a pure
// function of the seeded configuration (study.NewSession). A worker
// therefore receives only the config JSON at registration and rebuilds a
// world byte-identical to the coordinator's. A measured day crosses the
// wire in exactly one form, the one it is persisted in, and in one
// direction, worker to coordinator: the sealed, SHA-256-referenced column
// file of internal/daystore, one file image per frame. A worker seals
// what it sweeps and ships the image; the coordinator installs it
// (header, CRC, bounds and hash checked) and journals a reference.
// Besides day files only small values travel: configuration, assignments,
// a day's sweep counts (study.SweepCounts) and failure reports. No frame
// carries more than one day, so no frame grows with the span.
//
// Robustness contract:
//
//   - Workers heartbeat on an interval. Missed heartbeats mark a worker
//     suspect and its in-flight task is reassigned with backoff; a broken
//     connection marks it dead.
//   - A worker that panics on a day-shard reports the panic (reason +
//     stack); the coordinator retries the day once elsewhere and then
//     quarantines it into Report.SkippedDays — the exact PR 3 semantics,
//     byte for byte, so a crash-prone day looks the same whether it
//     crashed in-process or across the fleet.
//   - A worker that dies mid-task is treated the same way: retry once
//     elsewhere, then quarantine.
//   - SIGTERM to a worker triggers graceful drain: it finishes the
//     in-flight task, refuses new ones, deregisters, and exits.
//   - With a checkpoint journal, a killed coordinator resumes: completed
//     days (hash-verified references to the sealed files under
//     <checkpoint>/days) are loaded from CRC-guarded records, late
//     duplicate results are discarded (counted as redeliveries), and the
//     join re-runs in process, so the final report is byte-identical. A
//     journal whose days are all done needs no worker.
package distjoin

import (
	"fmt"
	"io"
	"sync"

	"dnsddos/internal/checkpoint"
	"dnsddos/internal/clock"
	"dnsddos/internal/study"
)

// kind discriminates control-plane messages.
type kind uint8

const (
	// worker → coordinator
	kindHello      kind = iota + 1 // register: Name
	kindHeartbeat                  // liveness beacon
	kindSweepDone                  // Day, Image, SHA256, Counts
	kindTaskFailed                 // Day, Reason, Stack
	kindDraining                   // SIGTERM received: finish in-flight, no new work
	kindGoodbye                    // drain complete, deregistering

	// coordinator → worker
	kindWelcome     // ConfigJSON, HeartbeatMS
	kindAssignSweep // Day
	kindShutdown    // run complete (or aborted): exit
)

// message is the single wire struct of the control plane. Unused fields
// gob-encode to nothing, so one struct for all kinds costs little and
// keeps the protocol greppable.
type message struct {
	Kind kind

	// hello / welcome
	Name        string
	ConfigJSON  []byte
	HeartbeatMS int64

	// sweep tasks: Image is one sealed day file (daystore.AppendDay),
	// SHA256 its hex content hash, Counts what the day's sweep counted
	Day    clock.Day
	Image  []byte
	SHA256 string
	Counts study.SweepCounts

	// failures
	Reason string
	Stack  string
}

// wire carries one message per checkpoint frame, each its own gob stream
// decoded in isolation: a flipped byte anywhere is refused, never silently
// decoded (what lets the chaos suite point faultinject's Corrupt at the
// control channel), and a refused frame fails the connection. Writes are
// serialized: the coordinator's event loop and a worker's heartbeat ticker
// both write, and interleaved partial frames would corrupt the stream.
type wire struct {
	conn io.ReadWriter
	mu   sync.Mutex
}

func (w *wire) send(m *message) error {
	b, err := checkpoint.EncodeFrame(m)
	if err != nil {
		return fmt.Errorf("distjoin: %v frame: %w", m.Kind, err)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	// One conn.Write per frame: the faultinject stream wrapper charges
	// faults per write, so a corrupted write damages exactly one frame.
	_, err = w.conn.Write(b)
	return err
}

// recv reads the next message into m. gob leaves fields absent from the
// stream untouched, so m is zeroed first.
func (w *wire) recv(m *message) error {
	*m = message{}
	return checkpoint.ReadFrame(w.conn, m)
}
