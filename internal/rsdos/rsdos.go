// Package rsdos infers Randomly and Uniformly Spoofed Denial-of-Service
// attacks from telescope backscatter, reproducing the semantics of CAIDA's
// RSDoS attack feed (§3.1): 5-minute tumbling windows of aggregated victim
// response statistics, curated with Moore-et-al.-style thresholds into
// attack records carrying victim IP, protocol, first/unique ports, the
// number of telescope /16s reached, and peak packet rate.
//
// Late-packet semantics: window aggregation is watermark-driven
// (Windower). A window closes once a packet arrives more than the
// lateness allowance past it — immediately for the batch
// PacketAggregator, whose allowance is zero — and packets for closed
// windows are *dropped and counted* (LateDrops), never folded in or
// re-emitted. Closed-window observations are therefore final and strictly
// window-ordered, which is what both the incremental Tracker and the
// streaming pipeline's exactly-once emission depend on.
package rsdos

import (
	"cmp"
	"slices"
	"time"

	"dnsddos/internal/clock"
	"dnsddos/internal/netx"
	"dnsddos/internal/packet"
)

// WindowObs aggregates the backscatter one victim generated into the
// telescope during one 5-minute window. Observations are produced either by
// a PacketAggregator (packet-level fidelity) or synthesized analytically by
// the longitudinal scenario generator; the inference below treats both
// identically.
type WindowObs struct {
	Window clock.Window
	Victim netx.Addr
	// Proto is the inferred attacked protocol (from backscatter type).
	// It sits beside Victim so the two share a word: a feed is hundreds
	// of thousands of these records.
	Proto packet.Protocol
	// Packets is the number of backscatter packets captured.
	Packets int64
	// PeakPPM is the peak per-minute packet rate inside the window
	// (packets per minute at the telescope, the Table 2 unit).
	PeakPPM float64
	// Slash16 is the number of distinct telescope /16 blocks reached —
	// the spread signal separating uniform spoofing from noise.
	Slash16 int
	// UniqueDsts is the number of distinct darknet destinations, i.e.
	// distinct spoofed sources that landed in the telescope.
	UniqueDsts int64
	// Ports lists the inferred attacked destination ports with their
	// packet counts, ascending by port, each port once. Nil and empty are
	// the same observation (an ICMP attack). Producers that cut many
	// lists from one array clamp each list's capacity to its length, so
	// appending to one observation's list never writes into the next.
	Ports []PortCount
}

// PortCount is one attacked destination port and the packets attributed
// to it.
type PortCount struct {
	Port uint16
	N    int64
}

// AddPort returns ports, a list ascending by port, with n more packets on
// port: added to the port's entry when it has one, inserted in port order
// otherwise.
func AddPort(ports []PortCount, port uint16, n int64) []PortCount {
	i, found := slices.BinarySearchFunc(ports, port, func(e PortCount, p uint16) int {
		return cmp.Compare(e.Port, p)
	})
	if found {
		ports[i].N += n
		return ports
	}
	return slices.Insert(ports, i, PortCount{Port: port, N: n})
}

// topPort returns the port with the highest count, the lowest such port
// on a tie (the list ascends by port, so the first maximum); 0 for an
// empty list.
func topPort(ports []PortCount) uint16 {
	var best uint16
	var bestN int64 = -1
	for _, pc := range ports {
		if pc.N > bestN {
			best, bestN = pc.Port, pc.N
		}
	}
	return best
}

// Config are the curation thresholds. Defaults approximate the Moore et
// al. backscatter methodology as applied by the CAIDA feed.
type Config struct {
	// MinPackets is the minimum backscatter packets per window for the
	// window to count as attack evidence.
	MinPackets int64
	// MinSlash16 is the minimum /16 spread per qualifying window;
	// uniform spoofing reaches many blocks quickly, scanners and
	// misconfigurations do not.
	MinSlash16 int
	// MaxGapWindows is how many consecutive non-qualifying windows may
	// separate two qualifying ones within a single attack.
	MaxGapWindows int
	// MinTotalPackets is the minimum packets over the whole attack.
	MinTotalPackets int64
}

// DefaultConfig returns the thresholds used throughout the reproduction.
func DefaultConfig() Config {
	return Config{
		MinPackets:      25,
		MinSlash16:      8,
		MaxGapWindows:   2,
		MinTotalPackets: 25,
	}
}

// Attack is one inferred RSDoS attack — the record schema of the feed.
type Attack struct {
	ID     int
	Victim netx.Addr
	// StartWindow..EndWindow are the inclusive qualifying windows.
	StartWindow clock.Window
	EndWindow   clock.Window
	// Proto is the dominant attacked protocol.
	Proto packet.Protocol
	// FirstPort is the first attacked port observed (0 for ICMP).
	FirstPort uint16
	// UniquePorts is the number of distinct attacked ports.
	UniquePorts int
	// TotalPackets is the backscatter packet total at the telescope.
	TotalPackets int64
	// PeakPPM is the maximum per-minute telescope packet rate.
	PeakPPM float64
	// MaxSlash16 is the maximum /16 spread over the attack's windows.
	MaxSlash16 int
	// UniqueDsts is the maximum per-window distinct darknet
	// destinations (a lower bound on distinct spoofed sources).
	UniqueDsts int64
}

// Start returns the attack start time.
func (a *Attack) Start() time.Time { return a.StartWindow.Start() }

// End returns the (exclusive) attack end time.
func (a *Attack) End() time.Time { return a.EndWindow.End() }

// Duration returns the inferred attack duration.
func (a *Attack) Duration() time.Duration { return a.End().Sub(a.Start()) }

// InferredVictimPPS extrapolates the telescope peak rate to the victim-side
// packet rate: PPM × scale / 60 (Table 2: 21.8 kppm × 341 / 60 ≈ 124 kpps).
func (a *Attack) InferredVictimPPS(scale float64) float64 {
	return a.PeakPPM * scale / 60
}

// InferredAttackerIPs extrapolates the distinct darknet destinations to the
// full IPv4 space, the Table 2 "Attacker IP Count" metric.
func (a *Attack) InferredAttackerIPs(scale float64) int64 {
	return int64(float64(a.UniqueDsts) * scale)
}

// InferredGbps estimates attack bandwidth from the inferred victim pps and
// a mean packet size.
func (a *Attack) InferredGbps(scale float64, packetBytes int) float64 {
	return a.InferredVictimPPS(scale) * float64(packetBytes) * 8 / 1e9
}

// Overlaps reports whether the attack interval overlaps [from, to).
func (a *Attack) Overlaps(from, to time.Time) bool {
	return a.Start().Before(to) && a.End().After(from)
}

// FirstOn returns the first attack of the feed on any of the victims that
// overlaps [from, to) — how a scripted case study is found in the inferred
// feed.
func FirstOn(attacks []Attack, victims []netx.Addr, from, to time.Time) (Attack, bool) {
	for _, a := range attacks {
		if slices.Contains(victims, a.Victim) && a.Overlaps(from, to) {
			return a, true
		}
	}
	return Attack{}, false
}

// Infer curates window observations into attack records. Observations may
// arrive in any order; they are grouped per victim and merged across window
// gaps of at most MaxGapWindows.
//
// It is the batch face of the incremental Tracker: qualifying
// observations are sorted into window order, folded through one Tracker,
// and the finalized feed is numbered by (StartWindow, Victim) rank. The
// streaming pipeline drives the identical Tracker watermark-by-watermark,
// so batch and streaming curation cannot diverge.
//
// Observation keys are not unique: two spoofed components on one victim
// give two observations of one (Window, Victim), and whichever the sort
// puts first sets a new attack's FirstPort. The sort is therefore part of
// the feed: an unstable pdqsort over this comparison, which a stable sort
// does not reproduce (inferReference in the tests holds the order). It
// permutes the positions of the qualifying observations, not the 72-byte
// records — pdqsort sees only comparison results, so the order is the one
// sorting the records would give.
func Infer(cfg Config, obs []WindowObs) []Attack {
	tr := NewTracker(cfg)
	qual := make([]int32, 0, len(obs)) // positions in obs
	for i := range obs {
		if tr.Qualifies(&obs[i]) {
			qual = append(qual, int32(i))
		}
	}
	slices.SortFunc(qual, func(i, j int32) int {
		a, b := &obs[i], &obs[j]
		return cmp.Or(cmp.Compare(a.Window, b.Window), cmp.Compare(a.Victim, b.Victim))
	})
	for _, i := range qual {
		tr.Observe(obs[i])
	}
	attacks := tr.Finish()
	for i := range attacks {
		attacks[i].ID = i + 1
	}
	return attacks
}

// finishAttack fills in what only the whole attack decides: the port
// count, the dominant protocol (highest packet count, lowest protocol
// number on a tie) and, when the first window named no port, the
// dominant port.
func finishAttack(a *Attack, ports []PortCount, protos []protoCount) {
	a.UniquePorts = len(ports)
	var bestN int64 = -1
	for _, pc := range protos { // ascending by protocol
		if pc.n > bestN {
			a.Proto, bestN = pc.proto, pc.n
		}
	}
	if a.FirstPort == 0 {
		a.FirstPort = topPort(ports)
	}
}
