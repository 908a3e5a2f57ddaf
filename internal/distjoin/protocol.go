// Package distjoin is the fault-tolerant distributed control plane of the
// study (DESIGN §3.6): a coordinator owns the work plan — the per-day
// measurement sweeps and the victim-prefix join shard ranges of the PR 5
// engine — and a fleet of workers executes it across processes.
//
// The design leans on one property the rest of the repo already
// guarantees: every phase of a study run up to the sweeps is a pure
// function of the seeded configuration (study.NewSession). A worker
// therefore receives only the config JSON at registration and rebuilds a
// world byte-identical to the coordinator's. A measured day crosses the
// wire in exactly one form, the one it is persisted in: the sealed,
// SHA-256-referenced column file of internal/daystore, one file image per
// frame. A worker seals what it sweeps and ships the image; the
// coordinator installs it (header, CRC, bounds and hash checked), journals
// a reference, and later streams the same files from disk to every worker
// that joins. Besides day files only small values travel: metric
// snapshots (obs.Snapshot) and tagged join events (core.TaggedEvent). No
// frame carries more than one day, so no frame grows with the span.
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
//     <checkpoint>/days) and join ranges are loaded from CRC-guarded
//     records, late duplicate results are discarded (counted as
//     redeliveries), and the final report is byte-identical with each
//     shard's results emitted exactly once.
package distjoin

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"

	"dnsddos/internal/clock"
	"dnsddos/internal/core"
	"dnsddos/internal/obs"
)

// kind discriminates control-plane messages.
type kind uint8

const (
	// worker → coordinator
	kindHello      kind = iota + 1 // register: Name
	kindHeartbeat                  // liveness beacon
	kindSweepDone                  // Day, Image, SHA256, Metrics
	kindTaskFailed                 // Day or Range, Reason, Stack
	kindJoinDone                   // Range, Events
	kindDraining                   // SIGTERM received: finish in-flight, no new work
	kindGoodbye                    // drain complete, deregistering

	// coordinator → worker
	kindWelcome     // ConfigJSON, HeartbeatMS
	kindAssignSweep // Day
	kindJoinSetup   // NumDays, Quarantined, NumShards, NumRanges
	kindDayFile     // Day, Image, SHA256: NumDays of them follow a join setup
	kindAssignJoin  // Range
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

	// sweep tasks and day files: Image is one sealed day file
	// (daystore.AppendDay), SHA256 its hex content hash
	Day     clock.Day
	Image   []byte
	SHA256  string
	Metrics obs.Snapshot

	// failures
	Reason string
	Stack  string

	// join phase
	NumDays     int
	Quarantined []clock.Day
	NumShards   int
	NumRanges   int
	Range       int
	Events      []core.TaggedEvent
}

var frameMagic = [4]byte{'D', 'J', 'N', '1'}

// maxFrame bounds a frame payload (64 MiB) so a corrupted length prefix
// cannot make a reader allocate unboundedly.
const maxFrame = 64 << 20

// encodeFrame renders one self-contained frame: magic, 4-byte big-endian
// payload length, gob payload, CRC-32 trailer. Each frame carries its own
// gob stream (type info and all), so a receiver can validate the CRC and
// decode a frame in isolation — a flipped byte anywhere in the frame is
// detected as a CRC mismatch, never silently decoded, which is what lets
// the chaos suite point faultinject's Corrupt at the control channel.
func encodeFrame(m *message) ([]byte, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(m); err != nil {
		return nil, fmt.Errorf("distjoin: encoding %v frame: %w", m.Kind, err)
	}
	if payload.Len() > maxFrame {
		return nil, fmt.Errorf("distjoin: %v frame exceeds %d bytes", m.Kind, maxFrame)
	}
	buf := make([]byte, 0, len(frameMagic)+4+payload.Len()+4)
	buf = append(buf, frameMagic[:]...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(payload.Len()))
	buf = append(buf, payload.Bytes()...)
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload.Bytes()))
	return buf, nil
}

// readFrame reads and integrity-checks one frame. Any violation — bad
// magic, oversized length, short read, CRC mismatch, undecodable gob — is
// an error; the peer treats the connection as failed and the fleet's
// retry machinery takes over.
func readFrame(r io.Reader, m *message) error {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	if !bytes.Equal(hdr[:4], frameMagic[:]) {
		return fmt.Errorf("distjoin: bad frame magic %x", hdr[:4])
	}
	n := binary.BigEndian.Uint32(hdr[4:8])
	if n > maxFrame {
		return fmt.Errorf("distjoin: frame length %d exceeds %d", n, maxFrame)
	}
	body := make([]byte, n+4)
	if _, err := io.ReadFull(r, body); err != nil {
		return fmt.Errorf("distjoin: short frame: %w", err)
	}
	payload, trailer := body[:n], body[n:]
	if got, want := crc32.ChecksumIEEE(payload), binary.BigEndian.Uint32(trailer); got != want {
		return fmt.Errorf("distjoin: frame crc mismatch (%08x != %08x)", got, want)
	}
	*m = message{}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(m); err != nil {
		return fmt.Errorf("distjoin: decoding frame: %w", err)
	}
	return nil
}

// wire serializes frame writes over one connection: the coordinator's
// event loop and a worker's heartbeat ticker both write, and interleaved
// partial frames would corrupt the stream for good.
type wire struct {
	conn net.Conn
	mu   sync.Mutex
}

func (w *wire) send(m *message) error {
	b, err := encodeFrame(m)
	if err != nil {
		return err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	// One conn.Write per frame: the faultinject stream wrapper charges
	// faults per write, so a corrupted write damages exactly one frame.
	_, err = w.conn.Write(b)
	return err
}

func (w *wire) recv(m *message) error { return readFrame(w.conn, m) }

// rangeBounds returns the shard interval [from, to) of range idx under
// the deterministic even partition of numShards into numRanges. Every
// participant — coordinator, each worker, a resumed coordinator — derives
// identical bounds from the journaled (NumShards, NumRanges) pair.
func rangeBounds(numShards, numRanges, idx int) (from, to int) {
	return idx * numShards / numRanges, (idx + 1) * numShards / numRanges
}
