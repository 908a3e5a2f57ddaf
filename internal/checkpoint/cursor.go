package checkpoint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"

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

// cursorLen is a cursor payload's length: five i64, the u32 victim, the
// HaveLast byte.
const cursorLen = 5*8 + 4 + 1

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
	// distinguishes "no attack finalized yet", where the two fields are
	// zero and name nothing, from an attack at window 0 of victim 0.
	LastAttackWindow clock.Window
	LastAttackVictim netx.Addr
	HaveLast         bool
}

func (c *Cursor) appendPayload(dst []byte) []byte {
	for _, v := range [...]int64{int64(c.ClosedThrough), int64(c.Attacks), c.Events, c.SinkBytes, int64(c.LastAttackWindow)} {
		dst = binary.BigEndian.AppendUint64(dst, uint64(v))
	}
	var last byte
	if c.HaveLast {
		last = 1
	}
	return append(binary.BigEndian.AppendUint32(dst, uint32(c.LastAttackVictim)), last)
}

func (c *Cursor) decodePayload(p []byte) error {
	switch {
	case len(p) < cursorLen:
		return errShortPayload
	case len(p) > cursorLen:
		return fmt.Errorf("%d bytes after the last field", len(p)-cursorLen)
	case p[cursorLen-1] > 1: // so every accepted payload encodes back to itself
		return fmt.Errorf("bool byte %d", p[cursorLen-1])
	}
	i64 := func(i int) int64 { return int64(binary.BigEndian.Uint64(p[8*i:])) }
	*c = Cursor{
		ClosedThrough: clock.Window(i64(0)), Attacks: int(i64(1)), Events: i64(2), SinkBytes: i64(3),
		LastAttackWindow: clock.Window(i64(4)), LastAttackVictim: netx.Addr(binary.BigEndian.Uint32(p[40:])), HaveLast: p[44] == 1,
	}
	return nil
}

// WriteCursor durably records the stream emission frontier: one frame,
// atomically published (temporary file, fsync, rename, directory fsync),
// so a torn or stale cursor is detected, never decoded as garbage.
func (d *Dir) WriteCursor(c Cursor) error {
	b, _ := EncodeFrame(&c) // a cursor's payload is never too long
	if err := d.dir.Write(cursorName, b); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// LoadCursor reads the stream emission frontier. The boolean is false
// when the run has never written one (fresh start); an existing but
// corrupt cursor is an error — resuming past it could emit duplicates.
func (d *Dir) LoadCursor() (Cursor, bool, error) {
	full := filepath.Join(d.path, cursorName)
	b, err := os.ReadFile(full)
	if errors.Is(err, os.ErrNotExist) {
		return Cursor{}, false, nil
	}
	if err != nil {
		return Cursor{}, false, fmt.Errorf("checkpoint: reading %s: %w", full, err)
	}
	var c Cursor
	if err := DecodeFrame(b, &c); err != nil {
		return Cursor{}, false, fmt.Errorf("%s: %w", full, err)
	}
	return c, true, nil
}
