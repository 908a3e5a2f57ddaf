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
//     victim IP, each victim's attacks held as 5-minute-window intervals
//     sorted by start. It answers "which attacks hit this victim" and
//     "which attacks are active in this window" without rescanning the
//     feed — the amplification-era feeds the related work describes
//     (Nawrocki et al., Kopp et al.) are high-volume and bursty, so the
//     engine indexes them once instead of scanning per event.
package core

import (
	"math/bits"
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
		for _, a := range k.Addrs() {
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

// attackRef is one indexed attack: its position in the source feed plus
// its window interval, denormalized so interval queries never touch the
// feed slice.
type attackRef struct {
	idx        int32
	start, end clock.Window
}

// victimIntervals is one victim's attack list, sorted by (start window,
// feed position), with a running maximum of end windows for O(log n + k)
// interval stabbing.
type victimIntervals struct {
	refs []attackRef
	// maxEnd[i] is the maximum end window over refs[0..i], the classic
	// augmentation that lets ActiveAt stop scanning as soon as no earlier
	// interval can still cover the probe window.
	maxEnd []clock.Window
}

// AttackIndex is an immutable interval index over an RSDoS attack feed,
// keyed by victim IP. Build it once with BuildAttackIndex; it references
// the feed slice (no copy) and must not outlive mutations to it.
type AttackIndex struct {
	attacks []rsdos.Attack
	byVic   map[netx.Addr]*victimIntervals
	victims []netx.Addr // sorted ascending
}

// BuildAttackIndex indexes the feed by victim. The feed slice is
// referenced, not copied.
func BuildAttackIndex(attacks []rsdos.Attack) *AttackIndex {
	return BuildAttackIndexFunc(attacks, nil)
}

// BuildAttackIndexFunc indexes the feed by victim, keeping only victims
// keep returns true for (nil keeps everything). keep is called once per
// feed entry and must be pure; the join engine passes a memoized
// DNS-infrastructure test here so the per-victim interval structures are
// only ever built for the tiny relevant subset of a bursty feed.
func BuildAttackIndexFunc(attacks []rsdos.Attack, keep func(netx.Addr) bool) *AttackIndex {
	ix := &AttackIndex{
		attacks: attacks,
		byVic:   make(map[netx.Addr]*victimIntervals),
	}
	for i := range attacks {
		// index, don't copy: feed entries are large and most are skipped
		a := &attacks[i]
		if keep != nil && !keep(a.Victim) {
			continue
		}
		vi := ix.byVic[a.Victim]
		if vi == nil {
			vi = &victimIntervals{}
			ix.byVic[a.Victim] = vi
		}
		vi.refs = append(vi.refs, attackRef{idx: int32(i), start: a.StartWindow, end: a.EndWindow})
	}
	ix.victims = make([]netx.Addr, 0, len(ix.byVic))
	for v, vi := range ix.byVic {
		ix.victims = append(ix.victims, v)
		sort.Slice(vi.refs, func(i, j int) bool {
			if vi.refs[i].start != vi.refs[j].start {
				return vi.refs[i].start < vi.refs[j].start
			}
			return vi.refs[i].idx < vi.refs[j].idx
		})
		vi.maxEnd = make([]clock.Window, len(vi.refs))
		running := clock.Window(-1 << 62)
		for i, r := range vi.refs {
			if r.end > running {
				running = r.end
			}
			vi.maxEnd[i] = running
		}
	}
	sort.Slice(ix.victims, func(i, j int) bool { return ix.victims[i] < ix.victims[j] })
	return ix
}

// Len returns the length of the underlying feed (including entries a
// filtered build skipped).
func (ix *AttackIndex) Len() int { return len(ix.attacks) }

// Victims returns all attacked IPs, ascending. The slice is shared;
// treat it as read-only.
func (ix *AttackIndex) Victims() []netx.Addr { return ix.victims }

// AttacksOn returns the feed positions of every attack on victim v,
// sorted by (start window, feed position).
func (ix *AttackIndex) AttacksOn(v netx.Addr) []int32 {
	vi := ix.byVic[v]
	if vi == nil {
		return nil
	}
	out := make([]int32, len(vi.refs))
	for i, r := range vi.refs {
		out[i] = r.idx
	}
	return out
}

// ActiveAt returns the feed positions of every attack on victim v whose
// inclusive window interval covers w, in feed order. It binary-searches
// the victim's start-sorted intervals and walks back only while the
// running end maximum says an earlier interval could still cover w.
func (ix *AttackIndex) ActiveAt(v netx.Addr, w clock.Window) []int32 {
	vi := ix.byVic[v]
	if vi == nil {
		return nil
	}
	// first interval starting after w can't cover it; scan backward from
	// there
	hi := sort.Search(len(vi.refs), func(i int) bool { return vi.refs[i].start > w })
	var out []int32
	for i := hi - 1; i >= 0; i-- {
		if vi.maxEnd[i] < w {
			break
		}
		if vi.refs[i].end >= w {
			out = append(out, vi.refs[i].idx)
		}
	}
	// collected backwards; restore feed order (ascending idx within equal
	// starts is how refs are sorted, so simply reverse)
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}
