package distjoin

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"strings"
	"testing"
	"time"

	"dnsddos/internal/checkpoint"
	"dnsddos/internal/clock"
	"dnsddos/internal/obs"
	"dnsddos/internal/study"
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

// sweepDone is a sweep-done message whose counts hold every field,
// the RTT histogram non-empty and with an overflow observation.
func sweepDone() *message {
	c := study.SweepCounts{OK: 9, ServFail: 2, Timeout: 1}
	for _, rtt := range []time.Duration{0, 900 * time.Microsecond, 38 * time.Millisecond, 38 * time.Millisecond, 2 * time.Second, 0, 0, 0, 90 * time.Second} {
		c.RTT.Observe(rtt)
	}
	return &message{Kind: kindSweepDone, Day: 27, Image: []byte("sealed day file image"), SHA256: "c0ffee", Counts: c}
}

// TestSweepDoneRoundTrip: a sweep-done frame carries the day's counts
// through checkpoint.EncodeFrame and ReadFrame unchanged, and its
// re-encoding is the same bytes.
func TestSweepDoneRoundTrip(t *testing.T) {
	m := sweepDone()
	frame, err := checkpoint.EncodeFrame(m)
	if err != nil {
		t.Fatal(err)
	}
	var got message
	if err := readMessage(frame, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, m) {
		t.Errorf("decoded %+v, want %+v", got, *m)
	}
	again, err := checkpoint.EncodeFrame(&got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, frame) {
		t.Error("the decoded sweep-done message re-encodes to other bytes")
	}
}

// shortHistogram stands in for obs.LocalHistogram on the sending side
// with an encoding one byte short. It is not zero, so gob sends it.
type shortHistogram int

func (shortHistogram) MarshalBinary() ([]byte, error) {
	return make([]byte, (obs.NumBuckets+3)*8-1), nil
}

// TestSweepDoneRefusesShortHistogram: a histogram encoding of the wrong
// length fails the frame with an error.
func TestSweepDoneRefusesShortHistogram(t *testing.T) {
	type counts struct {
		OK  int64
		RTT shortHistogram
	}
	frame, err := checkpoint.EncodeFrame(&struct {
		Kind   kind
		Day    clock.Day
		Counts counts
	}{Kind: kindSweepDone, Day: 27, Counts: counts{OK: 9, RTT: 1}})
	if err != nil {
		t.Fatal(err)
	}
	var m message
	err = readMessage(frame, &m)
	if err == nil || !strings.Contains(err.Error(), "local histogram encoding is") {
		t.Fatalf("a short histogram encoding decoded (%v): %+v", err, m)
	}
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
// mutation of the payload is decoded by gob into the wire struct, the
// sweep counts' fixed-length histogram encoding included. A frame that
// decodes re-encodes to a frame that decodes to the same kind, image and
// counts.
func FuzzReadFrame(f *testing.F) {
	for _, m := range []*message{
		{Kind: kindHello, Name: "alpha"},
		{Kind: kindHeartbeat},
		{Kind: kindWelcome, ConfigJSON: []byte(`{"World":{"Domains":1500}}`), HeartbeatMS: 250},
		{Kind: kindAssignSweep, Day: 27},
		sweepDone(),
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
		if err != nil || readMessage(again, &back) != nil || back.Kind != m.Kind || !bytes.Equal(back.Image, m.Image) || back.Counts != m.Counts {
			t.Fatalf("decoded %v frame does not survive a re-encode (%v): got %v with a %d-byte image, want %d",
				m.Kind, err, back.Kind, len(back.Image), len(m.Image))
		}
	})
}
