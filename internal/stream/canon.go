package stream

import (
	"cmp"
	"slices"

	"dnsddos/internal/clock"
	"dnsddos/internal/core"
	"dnsddos/internal/netx"
	"dnsddos/internal/rsdos"
)

// canon.go bridges the two attack numberings. The batch feed
// (rsdos.Infer) numbers attacks by (StartWindow, Victim) rank over the
// whole feed — a property a bounded-lag stream cannot know while
// long-lived attacks are still open, so the stream numbers in
// finalization order instead. Canonicalize maps stream-numbered output
// onto the batch numbering; after it, a stream over the study's feed and
// the batch study agree byte for byte (TestStreamBatchParity, and the
// root package's TestOutputs).

type attackKey struct {
	w clock.Window
	v netx.Addr
}

// Canonicalize renumbers stream-emitted attacks and events into batch
// feed order: attacks sorted by (StartWindow, Victim) — a unique key,
// since one victim's attacks never overlap — with IDs 1..n, and events
// stably reordered by their attack's canonical ID, each pointing at its
// attack in the returned feed. Inputs are not mutated: an event's attack
// is the stream's, so the canonical ID is not written through it.
func Canonicalize(attacks []rsdos.Attack, events []core.Event) ([]rsdos.Attack, []core.Event) {
	ca := make([]rsdos.Attack, len(attacks))
	copy(ca, attacks)
	slices.SortFunc(ca, func(a, b rsdos.Attack) int {
		return cmp.Or(cmp.Compare(a.StartWindow, b.StartWindow), cmp.Compare(a.Victim, b.Victim))
	})
	byKey := make(map[attackKey]*rsdos.Attack, len(ca))
	for i := range ca {
		ca[i].ID = int32(i + 1)
		byKey[attackKey{ca[i].StartWindow, ca[i].Victim}] = &ca[i]
	}
	ce := make([]core.Event, len(events))
	copy(ce, events)
	for i := range ce {
		ce[i].Attack.Attack = byKey[attackKey{ce[i].Attack.StartWindow, ce[i].Attack.Victim}]
	}
	// stable: within one attack the join's event order is already
	// canonical (both paths run the same engine over the same index)
	slices.SortStableFunc(ce, func(a, b core.Event) int { return cmp.Compare(a.Attack.ID, b.Attack.ID) })
	return ca, ce
}
