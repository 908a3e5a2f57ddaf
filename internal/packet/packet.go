// Package packet names the IPv4 protocol numbers the attack model, the
// telescope feed and the join carry: an attack component's vector, an
// observation's inferred protocol, an attack record's dominant one.
package packet

import "fmt"

// Protocol is the IPv4 protocol number.
type Protocol uint8

// The protocols the attack model floods with.
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
