package distjoin

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"dnsddos/internal/checkpoint"
	"dnsddos/internal/obs"
)

// frameHeader is the checkpoint frame's fixed prefix: the 8-byte magic, a
// u32 version and the u64 payload length.
const frameHeader = 8 + 4 + 8

// restampFrame makes b's length field and CRC trailer agree with the
// payload bytes b carries, so damage to the payload reaches the gob
// decoder instead of stopping at the envelope.
func restampFrame(b []byte) []byte {
	b = bytes.Clone(b) // the engine's bytes are read-only
	payload := b[frameHeader : len(b)-4]
	binary.BigEndian.PutUint64(b[frameHeader-8:], uint64(len(payload)))
	binary.BigEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(payload))
	return b
}

// readMessage is wire.recv over bytes.
func readMessage(b []byte, m *message) error {
	return (&wire{conn: bytes.NewBuffer(b)}).recv(m)
}

// FuzzReadFrame holds the fleet's receive path — every control-plane
// message, day files included, crosses processes through
// checkpoint.ReadFrame into the wire struct — to "error, never panic" on
// the bytes of a connection: as they are (magic, version, length bound,
// short read and CRC checks), and with length and CRC re-stamped so every
// mutation of the payload is decoded by gob into the wire struct. A frame
// that decodes re-encodes to a frame that decodes.
func FuzzReadFrame(f *testing.F) {
	for _, m := range []*message{
		{Kind: kindHello, Name: "alpha"},
		{Kind: kindHeartbeat},
		{Kind: kindWelcome, ConfigJSON: []byte(`{"World":{"Domains":1500}}`), HeartbeatMS: 250},
		{Kind: kindAssignSweep, Day: 27},
		{Kind: kindSweepDone, Day: 27, Image: []byte("sealed day file image"), SHA256: "c0ffee",
			Metrics: obs.Snapshot{Counters: map[string]int64{"study.sweep.ok": 9}}},
		{Kind: kindTaskFailed, Day: 28, Reason: "panic: poisoned shard", Stack: "goroutine 7 [running]:"},
		{Kind: kindDraining},
		{Kind: kindGoodbye},
		{Kind: kindShutdown},
	} {
		b, err := checkpoint.EncodeFrame(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)-5])
		f.Add(b[:frameHeader+2])
	}
	f.Add([]byte{})
	f.Add([]byte("DNSCKPT1"))

	f.Fuzz(func(t *testing.T, b []byte) {
		var m message
		_ = readMessage(b, &m) // as they are
		if len(b) < frameHeader+4 {
			return
		}
		if readMessage(restampFrame(b), &m) != nil {
			return
		}
		again, err := checkpoint.EncodeFrame(&m)
		var back message
		if err != nil || readMessage(again, &back) != nil || back.Kind != m.Kind || !bytes.Equal(back.Image, m.Image) {
			t.Fatalf("decoded %v frame does not survive a re-encode (%v): got %v with a %d-byte image, want %d",
				m.Kind, err, back.Kind, len(back.Image), len(m.Image))
		}
	})
}
