// Package packet models the IPv4, TCP, UDP and ICMP headers the telescope
// pipeline works with: the spoofed floods, the victims' backscatter and
// what the telescope captures of it. The design follows gopacket's layer
// model in miniature — a Packet with typed layers — but packets live only
// in memory; only the fields the RSDoS inference consumes are modeled.
package packet

import (
	"fmt"

	"dnsddos/internal/netx"
)

// Protocol is the IPv4 protocol number.
type Protocol uint8

// Protocol numbers used by the attack and backscatter models.
const (
	ProtoICMP Protocol = 1
	ProtoTCP  Protocol = 6
	ProtoUDP  Protocol = 17
)

// String renders the conventional protocol name.
func (p Protocol) String() string {
	switch p {
	case ProtoICMP:
		return "ICMP"
	case ProtoTCP:
		return "TCP"
	case ProtoUDP:
		return "UDP"
	default:
		return fmt.Sprintf("proto(%d)", uint8(p))
	}
}

// TCPFlags is the TCP flag byte (we only use the low 6 bits).
type TCPFlags uint8

// TCP flag bits.
const (
	FlagFIN TCPFlags = 1 << 0
	FlagSYN TCPFlags = 1 << 1
	FlagRST TCPFlags = 1 << 2
	FlagPSH TCPFlags = 1 << 3
	FlagACK TCPFlags = 1 << 4
	FlagURG TCPFlags = 1 << 5
)

// Has reports whether all bits of f are set.
func (t TCPFlags) Has(f TCPFlags) bool { return t&f == f }

// String renders set flags, e.g. "SYN|ACK".
func (t TCPFlags) String() string {
	names := []struct {
		f TCPFlags
		n string
	}{{FlagFIN, "FIN"}, {FlagSYN, "SYN"}, {FlagRST, "RST"}, {FlagPSH, "PSH"}, {FlagACK, "ACK"}, {FlagURG, "URG"}}
	out := ""
	for _, fn := range names {
		if t.Has(fn.f) {
			if out != "" {
				out += "|"
			}
			out += fn.n
		}
	}
	if out == "" {
		return "0"
	}
	return out
}

// IPv4Header is the part of the IPv4 header the model carries.
type IPv4Header struct {
	TTL      uint8
	Protocol Protocol
	Src      netx.Addr
	Dst      netx.Addr
}

// TCPHeader is the part of the TCP header the model carries.
type TCPHeader struct {
	SrcPort uint16
	DstPort uint16
	Seq     uint32
	Ack     uint32
	Flags   TCPFlags
	Window  uint16
}

// UDPHeader is the UDP header's ports.
type UDPHeader struct {
	SrcPort uint16
	DstPort uint16
}

// ICMP types the backscatter model emits.
const (
	ICMPEchoReply       = 0
	ICMPDestUnreachable = 3
	ICMPCodePortUnreach = 3
)

// ICMPHeader is the ICMP header.
type ICMPHeader struct {
	Type uint8
	Code uint8
	// Rest carries the 4 type-specific bytes (unused by the inference).
	Rest uint32
}

// Packet is an IPv4 packet with at most one transport layer.
type Packet struct {
	IP   IPv4Header
	TCP  *TCPHeader
	UDP  *UDPHeader
	ICMP *ICMPHeader
}

// SrcPort returns the transport source port, or 0 for ICMP/unknown.
func (p *Packet) SrcPort() uint16 {
	switch {
	case p.TCP != nil:
		return p.TCP.SrcPort
	case p.UDP != nil:
		return p.UDP.SrcPort
	}
	return 0
}

// DstPort returns the transport destination port, or 0 for ICMP/unknown.
func (p *Packet) DstPort() uint16 {
	switch {
	case p.TCP != nil:
		return p.TCP.DstPort
	case p.UDP != nil:
		return p.UDP.DstPort
	}
	return 0
}
