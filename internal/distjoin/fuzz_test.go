package distjoin

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"dnsddos/internal/clock"
	"dnsddos/internal/core"
	"dnsddos/internal/nsset"
	"dnsddos/internal/obs"
)

// restampFrame makes b's length field and CRC trailer agree with the
// payload bytes b carries, so damage to the payload reaches the gob
// decoder instead of stopping at the envelope.
func restampFrame(b []byte) []byte {
	b = bytes.Clone(b) // the engine's bytes are read-only
	payload := b[len(frameMagic)+4 : len(b)-4]
	binary.BigEndian.PutUint32(b[len(frameMagic):], uint32(len(payload)))
	binary.BigEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(payload))
	return b
}

// FuzzReadFrame holds readFrame — the parser every control-plane message
// crosses processes through, tagged join events and day files included —
// to "error, never panic" on the bytes of a connection: as they are
// (magic, length bound, short read and CRC checks), and with length and
// CRC re-stamped so every mutation of the payload is decoded by gob into
// the wire struct. A frame that decodes re-encodes to a frame that decodes.
func FuzzReadFrame(f *testing.F) {
	var ev core.TaggedEvent
	ev.AttackIdx, ev.NSSetIdx = 3, 1
	ev.Event.NSSet = nsset.Key("\xc0\x00\x02\x01\xc0\x00\x02\x02")
	ev.Event.Attack.StartWindow, ev.Event.Attack.EndWindow = 8209, 8211
	ev.Event.Impact, ev.Event.HasImpact, ev.Event.Provider = 12.5, true, "TransIP"
	for _, m := range []*message{
		{Kind: kindHello, Name: "alpha"},
		{Kind: kindWelcome, ConfigJSON: []byte(`{"World":{"Domains":1500}}`), HeartbeatMS: 250},
		{Kind: kindAssignSweep, Day: 27},
		{Kind: kindSweepDone, Day: 27, Image: []byte("sealed day file image"), SHA256: "c0ffee",
			Metrics: obs.Snapshot{Counters: map[string]int64{"study.sweep.ok": 9}}},
		{Kind: kindTaskFailed, Day: 28, Reason: "panic: poisoned shard", Stack: "goroutine 7 [running]:"},
		{Kind: kindJoinSetup, NumDays: 5, Quarantined: []clock.Day{29}, NumShards: 12, NumRanges: 4},
		{Kind: kindAssignJoin, Range: 2},
		{Kind: kindJoinDone, Range: 2, Events: []core.TaggedEvent{ev, ev}},
	} {
		b, err := encodeFrame(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)-5])
		f.Add(b[:len(frameMagic)+4+2])
	}
	f.Add([]byte{})
	f.Add(frameMagic[:])

	f.Fuzz(func(t *testing.T, b []byte) {
		var m message
		// As they are — unless the length field only promises more bytes
		// than the input holds and more than a frame here ever has: that is
		// a short read by construction, and readFrame would allocate the
		// promise (up to maxFrame) to find out.
		if len(b) < 8 || binary.BigEndian.Uint32(b[4:8]) <= max(1<<20, uint32(len(b))) {
			_ = readFrame(bytes.NewReader(b), &m)
		}
		if len(b) < len(frameMagic)+4+4 {
			return
		}
		if readFrame(bytes.NewReader(restampFrame(b)), &m) != nil {
			return
		}
		again, err := encodeFrame(&m)
		var back message
		if err != nil || readFrame(bytes.NewReader(again), &back) != nil || back.Kind != m.Kind || len(back.Events) != len(m.Events) {
			t.Fatalf("decoded %v frame does not survive a re-encode (%v): got %v with %d of %d events",
				m.Kind, err, back.Kind, len(back.Events), len(m.Events))
		}
	})
}
