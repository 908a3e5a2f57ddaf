// index.go holds the two immutable indexes the sharded join engine is
// built on (DESIGN §3.4):
//
//   - NSIndex: the nameserver-side join index derived from the world DB
//     (and, when available, the openintel engine's per-domain NSSet
//     cache): nameserver address → the NSSets containing it, NSSet →
//     hosted-domain count, and the /24s that contain at least one
//     nameserver. Built once per world and shared read-only by every
//     worker shard; per-day measurements are read beside it through the
//     pipeline's DayStore (daystore.go).
//
//   - AttackIndex: an interval index over an RSDoS attack feed, keyed by
//     victim IP: one flat list of 5-minute-window intervals sorted by
//     (victim, start), each victim's attacks a contiguous run of it. It
//     answers "which attacks hit this victim" and "which attacks are
//     active in this window" without rescanning the
//     feed — the amplification-era feeds the related work describes
//     (Nawrocki et al., Kopp et al.) are high-volume and bursty, so the
//     engine indexes them once instead of scanning per event.
package core

import (
	"cmp"
	"math/bits"
	"slices"
	"sort"

	"dnsddos/internal/clock"
	"dnsddos/internal/dnsdb"
	"dnsddos/internal/netx"
	"dnsddos/internal/nsset"
	"dnsddos/internal/rsdos"
)

// NSIndex is the immutable nameserver-side join index. Build it once per
// world with BuildNSIndex and share it across pipelines and worker
// shards; nothing mutates it after construction.
type NSIndex struct {
	// nssetDomains maps each NSSet to the number of domains hosted on it.
	nssetDomains map[nsset.Key]int
	// nssetsByAddr maps a nameserver address to the sorted NSSets
	// containing it.
	nssetsByAddr map[netx.Addr][]nsset.Key
	// slash24HasNS marks /24s containing at least one nameserver.
	slash24HasNS map[netx.Prefix]bool
	// nsFilter is a one-bit-per-bucket filter over nameserver addresses.
	// Attack feeds are dominated by victims that are not DNS
	// infrastructure, so the join prefilters every victim with one shift
	// and one bit test before touching any map; only the few survivors
	// (true nameservers plus ~6% hash collisions) pay a real lookup.
	nsFilter      []uint64
	nsFilterShift uint
}

// mayBeNS is the prefilter probe: false means a is definitely not a
// nameserver address; true means "check properly".
func (ix *NSIndex) mayBeNS(a netx.Addr) bool {
	h := uint32(a) * 2654435761 // Knuth multiplicative hash
	idx := h >> ix.nsFilterShift
	return ix.nsFilter[idx>>6]&(1<<(idx&63)) != 0
}

// BuildNSIndex derives the nameserver-side index from the world DB.
// domainNSSets, when non-nil, is the precomputed per-domain NSSet key
// slice (openintel.Engine.DomainNSSets), indexed by DomainID, which
// skips the O(domains × set size) key recomputation; nil recomputes the
// keys from the DB.
func BuildNSIndex(db *dnsdb.DB, domainNSSets []nsset.Key) *NSIndex {
	ix := &NSIndex{
		nssetDomains: make(map[nsset.Key]int),
		nssetsByAddr: make(map[netx.Addr][]nsset.Key),
		slash24HasNS: make(map[netx.Prefix]bool),
	}
	for i := range db.Domains {
		var k nsset.Key
		if domainNSSets != nil {
			k = domainNSSets[i]
		} else {
			k = nsset.KeyOf(db.NSAddrs(dnsdb.DomainID(i)))
		}
		ix.nssetDomains[k]++
	}
	for k := range ix.nssetDomains {
		for i := 0; i < k.Size(); i++ {
			a := k.Addr(i)
			ix.nssetsByAddr[a] = append(ix.nssetsByAddr[a], k)
		}
	}
	// size the prefilter at ≥16 bits per nameserver address (~6% false
	// positives), minimum 1024 bits
	nbits := 1024
	for nbits < 16*len(ix.nssetsByAddr) {
		nbits <<= 1
	}
	ix.nsFilter = make([]uint64, nbits/64)
	ix.nsFilterShift = 32 - uint(bits.TrailingZeros(uint(nbits)))
	for a, sets := range ix.nssetsByAddr {
		sort.Slice(sets, func(i, j int) bool { return sets[i] < sets[j] })
		ix.slash24HasNS[a.Slash24()] = true
		h := uint32(a) * 2654435761
		idx := h >> ix.nsFilterShift
		ix.nsFilter[idx>>6] |= 1 << (idx & 63)
	}
	return ix
}

// NSSetsContaining returns the NSSets containing a nameserver address,
// sorted. The slice is shared; treat it as read-only.
func (ix *NSIndex) NSSetsContaining(a netx.Addr) []nsset.Key {
	return ix.nssetsByAddr[a]
}

// DomainCount returns how many registered domains delegate to NSSet k.
func (ix *NSIndex) DomainCount(k nsset.Key) int { return ix.nssetDomains[k] }

// HasNSInSlash24 reports whether the /24 containing a holds at least one
// nameserver.
func (ix *NSIndex) HasNSInSlash24(a netx.Addr) bool {
	return ix.slash24HasNS[a.Slash24()]
}

// attackRef is one indexed attack: its victim and position in the source
// feed plus its window interval, denormalized so sorting and interval
// queries never touch the feed slice.
type attackRef struct {
	victim     netx.Addr
	idx        int32
	start, end clock.Window
}

// AttackIndex is an immutable interval index over an RSDoS attack feed,
// keyed by victim IP. Build it once with BuildAttackIndex; it references
// the feed slice (no copy) and must not outlive mutations to it.
//
// The plan is flat: one ref per indexed attack, sorted once by (victim,
// start window, feed position), so each victim's attacks are one
// contiguous run and nothing is allocated per victim.
type AttackIndex struct {
	attacks []rsdos.Attack
	refs    []attackRef
	// pos[i] is refs[i].idx: the feed positions AttacksOn and the join's
	// per-victim work lists are sub-slices of.
	pos []int32
	// maxEnd[i] is the maximum end window over the victim's refs up to i,
	// the classic augmentation that lets ActiveAt stop scanning as soon
	// as no earlier interval can still cover the probe window.
	maxEnd  []clock.Window
	victims []netx.Addr // ascending
	// offs[i] is where victims[i]'s run starts in refs; its end is
	// offs[i+1].
	offs []int32
}

// BuildAttackIndex indexes the feed by victim. The feed slice is
// referenced, not copied.
func BuildAttackIndex(attacks []rsdos.Attack) *AttackIndex {
	return BuildAttackIndexFunc(attacks, nil)
}

// BuildAttackIndexFunc indexes the feed by victim, keeping only victims
// keep returns true for (nil keeps everything). keep is called twice per
// feed entry — once to size the plan, once to fill it — and must be pure;
// the join engine passes a memoized DNS-infrastructure test here so the
// interval structures are only ever built for the tiny relevant subset of
// a bursty feed.
func BuildAttackIndexFunc(attacks []rsdos.Attack, keep func(netx.Addr) bool) *AttackIndex {
	n := len(attacks)
	if keep != nil {
		n = 0
		for i := range attacks {
			if keep(attacks[i].Victim) {
				n++
			}
		}
	}
	ix := &AttackIndex{
		attacks: attacks,
		refs:    make([]attackRef, 0, n),
		pos:     make([]int32, n),
		maxEnd:  make([]clock.Window, n),
	}
	for i := range attacks {
		// index, don't copy: feed entries are large and most are skipped
		a := &attacks[i]
		if keep == nil || keep(a.Victim) {
			ix.refs = append(ix.refs, attackRef{victim: a.Victim, idx: int32(i), start: a.StartWindow, end: a.EndWindow})
		}
	}
	slices.SortFunc(ix.refs, func(a, b attackRef) int {
		return cmp.Or(cmp.Compare(a.victim, b.victim), cmp.Compare(a.start, b.start), cmp.Compare(a.idx, b.idx))
	})
	nv := 0
	for i, r := range ix.refs {
		if i == 0 || r.victim != ix.refs[i-1].victim {
			nv++
		}
	}
	ix.victims = make([]netx.Addr, 0, nv)
	ix.offs = make([]int32, 0, nv+1)
	for i, r := range ix.refs {
		ix.pos[i] = r.idx
		ix.maxEnd[i] = r.end
		if i == 0 || r.victim != ix.refs[i-1].victim {
			ix.victims = append(ix.victims, r.victim)
			ix.offs = append(ix.offs, int32(i))
		} else if ix.maxEnd[i-1] > r.end {
			ix.maxEnd[i] = ix.maxEnd[i-1]
		}
	}
	ix.offs = append(ix.offs, int32(len(ix.refs)))
	return ix
}

// Len returns the length of the underlying feed (including entries a
// filtered build skipped).
func (ix *AttackIndex) Len() int { return len(ix.attacks) }

// Victims returns all attacked IPs, ascending. The slice is shared;
// treat it as read-only.
func (ix *AttackIndex) Victims() []netx.Addr { return ix.victims }

// run returns the bounds of v's run in refs (empty when v was not indexed).
func (ix *AttackIndex) run(v netx.Addr) (lo, hi int) {
	i, ok := slices.BinarySearch(ix.victims, v)
	if !ok {
		return 0, 0
	}
	return int(ix.offs[i]), int(ix.offs[i+1])
}

// AttacksOn returns the feed positions of every attack on victim v,
// sorted by (start window, feed position). The slice is shared; treat it
// as read-only.
func (ix *AttackIndex) AttacksOn(v netx.Addr) []int32 {
	lo, hi := ix.run(v)
	return ix.pos[lo:hi:hi]
}

// ActiveAt returns the feed positions of every attack on victim v whose
// inclusive window interval covers w, in feed order. It binary-searches
// the victim's start-sorted intervals and walks back only while the
// running end maximum says an earlier interval could still cover w.
func (ix *AttackIndex) ActiveAt(v netx.Addr, w clock.Window) []int32 {
	lo, hi := ix.run(v)
	refs, maxEnd := ix.refs[lo:hi], ix.maxEnd[lo:hi]
	// first interval starting after w can't cover it; scan backward from
	// there
	after := sort.Search(len(refs), func(i int) bool { return refs[i].start > w })
	var out []int32
	for i := after - 1; i >= 0; i-- {
		if maxEnd[i] < w {
			break
		}
		if refs[i].end >= w {
			out = append(out, refs[i].idx)
		}
	}
	// collected backwards; restore feed order (ascending idx within equal
	// starts is how refs are sorted, so simply reverse)
	slices.Reverse(out)
	return out
}
