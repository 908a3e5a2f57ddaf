// Package astopo models the routing metadata the paper joins against:
// CAIDA's prefix-to-AS mapping (longest-prefix match over announced
// prefixes) and the AS-to-organization mapping (§3.3).
package astopo

import (
	"cmp"
	"fmt"
	"maps"
	"slices"

	"dnsddos/internal/netx"
)

// ASN is an autonomous system number.
type ASN uint32

// String renders "AS15169".
func (a ASN) String() string { return fmt.Sprintf("AS%d", uint32(a)) }

// Org describes the organization operating one or more ASes.
type Org struct {
	Name    string
	Country string // ISO 3166-1 alpha-2
}

// Table is the prefix→AS longest-prefix-match table plus the AS→org registry.
// It is immutable after Build and safe for concurrent use.
type Table struct {
	// disjoint ranges of announced space in address order: range i runs
	// from firsts[i] to lasts[i] under the most specific prefix's origin
	firsts, lasts, asns []uint32
	orgs                map[ASN]Org
	n                   int
}

// Builder accumulates announcements and orgs before freezing into a Table.
type Builder struct {
	routes []route
	orgs   map[ASN]Org
}

// route is one announcement: its prefix's first address and length, its
// origin, and its place among the announcements.
type route struct {
	first netx.Addr
	asn   ASN
	seq   uint32
	bits  uint8
}

// last returns the prefix's last address.
func (r *route) last() uint64 { return uint64(r.first) + 1<<(32-r.bits) - 1 }

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{orgs: make(map[ASN]Org)}
}

// Grow makes room for n more announcements.
func (b *Builder) Grow(n int) { b.routes = slices.Grow(b.routes, n) }

// Announce records that asn originates prefix. More-specific announcements
// win on lookup, matching BGP longest-prefix-match semantics.
func (b *Builder) Announce(prefix netx.Prefix, asn ASN) {
	b.routes = append(b.routes, route{prefix.Addr & prefix.Mask(), asn, uint32(len(b.routes)), uint8(prefix.Bits)})
}

// SetOrg registers the organization for an ASN.
func (b *Builder) SetOrg(asn ASN, org Org) {
	b.orgs[asn] = org
}

// Build freezes the builder into an immutable lookup table. Duplicate
// announcements of the same prefix keep the last one, mirroring how a
// RouteViews-derived snapshot resolves to a single origin.
//
// The announcements are sorted in place by (first address, length,
// place): a prefix comes before those nested in it, duplicates in
// announcement order. One sweep with a stack of the open prefixes then
// cuts a range wherever a prefix opens or closes: at most 2n, in one
// allocation.
func (b *Builder) Build() *Table {
	t := &Table{orgs: maps.Clone(b.orgs), n: len(b.routes)}
	slices.SortFunc(b.routes, func(x, y route) int {
		return cmp.Or(cmp.Compare(x.first, y.first), cmp.Compare(x.bits, y.bits), cmp.Compare(x.seq, y.seq))
	})
	room := 2 * len(b.routes)
	buf := make([]uint32, 3*room)
	t.firsts, t.lasts, t.asns = buf[:0:room], buf[room:room:2*room], buf[2*room:2*room:3*room]
	var open [33]*route // innermost last; 33 lengths bound the depth
	depth, from := 0, uint64(0)
	// flush ends the innermost open prefix's range [from, to)
	flush := func(to uint64) {
		if depth > 0 && from < to {
			t.firsts = append(t.firsts, uint32(from))
			t.lasts = append(t.lasts, uint32(to-1))
			t.asns = append(t.asns, uint32(open[depth-1].asn))
		}
		from = to
	}
	closeTo := func(addr uint64) {
		for ; depth > 0 && open[depth-1].last() < addr; depth-- {
			flush(open[depth-1].last() + 1)
		}
	}
	for i := range b.routes {
		r := &b.routes[i]
		if i+1 < len(b.routes) && r.first == b.routes[i+1].first && r.bits == b.routes[i+1].bits {
			continue // a later duplicate wins
		}
		closeTo(uint64(r.first))
		flush(uint64(r.first))
		open[depth] = r
		depth++
	}
	closeTo(1 << 32)
	return t
}

// Lookup returns the origin ASN for addr via longest-prefix match.
func (t *Table) Lookup(addr netx.Addr) (ASN, bool) {
	// bisect for the last range starting at or before addr; a step's
	// borrow masks it, so no branch mispredicts
	firsts, a := t.firsts, uint32(addr)
	n := len(firsts)
	if n == 0 || firsts[0] > a {
		return 0, false
	}
	i := 0
	for n > 1 {
		half := n / 2
		i += half & (int((uint64(a)-uint64(firsts[i+half]))>>63) - 1)
		n -= half
	}
	if a > t.lasts[i] {
		return 0, false
	}
	return ASN(t.asns[i]), true
}

// OrgName returns a printable name for an ASN, falling back to "ASn".
func (t *Table) OrgName(asn ASN) string {
	if o, ok := t.orgs[asn]; ok && o.Name != "" {
		return o.Name
	}
	return asn.String()
}

// Len returns the number of announced prefixes.
func (t *Table) Len() int { return t.n }
