// Package astopo models the routing metadata the paper joins against:
// CAIDA's prefix-to-AS mapping (longest-prefix match over announced
// prefixes) and the AS-to-organization mapping (§3.3).
package astopo

import (
	"fmt"

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
	nodes []node // the binary trie, nodes[0] its root
	orgs  map[ASN]Org
	n     int
}

// node is one trie node; a child index of 0 (the root, never a child)
// means none.
type node struct {
	child [2]int32
	asn   ASN
	set   bool
}

// Entry is one announced prefix.
type Entry struct {
	Prefix netx.Prefix
	ASN    ASN
}

// Builder accumulates entries and org records before freezing into a Table.
type Builder struct {
	entries []Entry
	orgs    map[ASN]Org
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder {
	return &Builder{orgs: make(map[ASN]Org)}
}

// Announce records that asn originates prefix. More-specific announcements
// win on lookup, matching BGP longest-prefix-match semantics.
func (b *Builder) Announce(prefix netx.Prefix, asn ASN) {
	b.entries = append(b.entries, Entry{Prefix: prefix, ASN: asn})
}

// SetOrg registers the organization for an ASN.
func (b *Builder) SetOrg(asn ASN, org Org) {
	b.orgs[asn] = org
}

// Build freezes the builder into an immutable lookup table. Duplicate
// announcements of the same prefix keep the last one, mirroring how a
// RouteViews-derived snapshot resolves to a single origin.
func (b *Builder) Build() *Table {
	t := &Table{nodes: make([]node, 1, 1+len(b.entries)), orgs: make(map[ASN]Org, len(b.orgs)), n: len(b.entries)}
	for asn, org := range b.orgs {
		t.orgs[asn] = org
	}
	for _, e := range b.entries {
		t.insert(e.Prefix, e.ASN)
	}
	return t
}

func (t *Table) insert(p netx.Prefix, asn ASN) {
	n := int32(0)
	for i := 0; i < p.Bits; i++ {
		bit := (uint32(p.Addr) >> (31 - uint(i))) & 1
		if t.nodes[n].child[bit] == 0 {
			t.nodes[n].child[bit] = int32(len(t.nodes))
			t.nodes = append(t.nodes, node{})
		}
		n = t.nodes[n].child[bit]
	}
	t.nodes[n].asn = asn
	t.nodes[n].set = true
}

// Lookup returns the origin ASN for addr via longest-prefix match.
func (t *Table) Lookup(addr netx.Addr) (ASN, bool) {
	var best ASN
	found := false
	for i, n := 0, int32(0); ; i++ {
		nd := &t.nodes[n]
		if nd.set {
			best, found = nd.asn, true
		}
		if i == 32 {
			break
		}
		if n = nd.child[(uint32(addr)>>(31-uint(i)))&1]; n == 0 {
			break
		}
	}
	return best, found
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
