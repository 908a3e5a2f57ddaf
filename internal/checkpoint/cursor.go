package checkpoint

import (
	"dnsddos/internal/clock"
	"dnsddos/internal/netx"
)

// cursor.go adds the streaming pipeline's emission journal to a
// checkpoint directory. The batch path checkpoints whole measurement
// days; the stream checkpoints the *emission frontier* instead: the last
// window whose impact events were durably handed to the sink. On resume
// the stream replays its deterministic input and suppresses every
// emission at or below the cursor, so each window's events reach the sink
// exactly once across any number of kill/resume cycles.

const cursorName = "stream_cursor.ckpt"

// Cursor is the durable emission frontier of a streaming run. It is
// written after the sink has accepted a closed window's output, so its
// invariant is: everything up to and including ClosedThrough is already
// in the sink; nothing after it is.
type Cursor struct {
	// ClosedThrough is the highest window whose output the sink holds.
	ClosedThrough clock.Window
	// Attacks is the attack-ID counter after that window: finalized
	// attacks are numbered in emission order, and a resumed run must
	// continue the sequence, not restart it.
	Attacks int
	// Events is the cumulative impact-event count handed to the sink.
	Events int64
	// SinkBytes is the sink's byte offset after the last accepted batch.
	// A file-backed sink truncates to this offset on resume, discarding
	// any partial write from the crash.
	SinkBytes int64
	// LastAttackWindow/LastAttackVictim identify the last attack
	// finalized at the frontier — the (window, victim) pair the attack
	// numbering is anchored to. A resume replay that diverges can then
	// report both sides of the mismatch (what the journal recorded vs
	// what the replay produced) instead of a bare record index, which is
	// what an operator needs to locate the offending input. HaveLast
	// distinguishes "no attacks yet" from a pre-extension cursor whose
	// gob payload simply lacks the fields.
	LastAttackWindow clock.Window
	LastAttackVictim netx.Addr
	HaveLast         bool
}

// WriteCursor durably records the stream emission frontier. It shares
// the record envelope (magic, version, CRC, atomic rename), so a torn
// or stale cursor is detected, never decoded as garbage.
func (d *Dir) WriteCursor(c Cursor) error {
	return d.Write(cursorName, &c)
}

// LoadCursor reads the stream emission frontier. The boolean is false
// when the run has never written one (fresh start); an existing but
// corrupt cursor is an error — resuming past it could emit duplicates.
func (d *Dir) LoadCursor() (Cursor, bool, error) {
	var c Cursor
	ok, err := d.Load(cursorName, &c)
	if err != nil {
		return Cursor{}, false, err
	}
	return c, ok, nil
}
