// Package rsdos infers Randomly and Uniformly Spoofed Denial-of-Service
// attacks from telescope backscatter, reproducing the semantics of CAIDA's
// RSDoS attack feed (§3.1): 5-minute tumbling windows of aggregated victim
// response statistics, curated with Moore-et-al.-style thresholds into
// attack records carrying victim IP, protocol, first/unique ports, the
// number of telescope /16s reached, and peak packet rate.
//
// The curation is one machine, a Fold, driven by a watermark: its caller
// hands it window observations, each folded into its victim's open run as
// it is taken, and says, now and then, that no later observation can lie
// below a watermark; the attacks no later window can extend are then
// finalized. Infer is a Fold closed in one step; the batch study folds
// the feed as synthesis draws it, and the streaming pipeline
// (internal/stream) folds the same feed as it is delivered, dropping and
// counting an observation whose window it has already closed. Closed
// windows are therefore final, which is what the stream's exactly-once
// emission depends on.
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
// telescope during one 5-minute window: one record of the curated feed.
// The scenario generator synthesizes them at flow level; the packet-level
// model they are held to lives in this package's tests
// (TestPacketPathMatchesFlowPath).
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
// Its 8-byte fields come first, so it takes 64 bytes: a session holds one
// per attack inferred (TestAttackLayout).
type Attack struct {
	// TotalPackets is the backscatter packet total at the telescope.
	TotalPackets int64
	// PeakPPM is the maximum per-minute telescope packet rate.
	PeakPPM float64
	// UniqueDsts is the maximum per-window distinct darknet
	// destinations (a lower bound on distinct spoofed sources).
	UniqueDsts int64
	// StartWindow..EndWindow are the inclusive qualifying windows.
	StartWindow clock.Window
	EndWindow   clock.Window
	ID          int32
	Victim      netx.Addr
	// UniquePorts is the number of distinct attacked ports.
	UniquePorts int32
	// MaxSlash16 is the maximum /16 spread over the attack's windows.
	MaxSlash16 int32
	// FirstPort is the first attacked port observed (0 for ICMP).
	FirstPort uint16
	// Proto is the dominant attacked protocol.
	Proto packet.Protocol
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
// It is a Fold closed in one step: each qualifying observation is folded
// into its victim's run as it is taken, in feed order, and the finalized feed is numbered by (StartWindow, Victim)
// rank. The streaming pipeline drives the identical Fold watermark by
// watermark, so batch and streaming curation cannot diverge.
//
// Observation keys are not unique: two spoofed components on one victim
// give two observations of one (Window, Victim), and of an attack's first
// window the one that comes first sets FirstPort. Feed position decides
// it — the earlier observation in obs, as a stable sort by (Window,
// Victim) would put it (inferReference in the tests holds the order).
func Infer(cfg Config, obs []WindowObs) []Attack {
	f := NewFold(cfg)
	for i := range obs {
		f.Take(&obs[i])
	}
	return f.Finish()
}

// finishAttack fills in what only the whole attack decides: the port
// count, the dominant protocol (highest packet count, lowest protocol
// number on a tie) and, when the first window named no port, the
// dominant port.
func finishAttack(a *Attack, ports []PortCount, protos []protoCount) {
	a.UniquePorts = int32(len(ports))
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
