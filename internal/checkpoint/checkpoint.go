// Package checkpoint is the journal of a study run: it records which
// day-shards completed so a killed run can resume from the last durable
// day instead of day 0 (DESIGN §3.2). A checkpoint directory holds
//
//   - header.json — the run identity: format version, a hash of the full
//     study configuration, and the measurement seed. Resume refuses a
//     directory whose header does not match the current run, so stale
//     checkpoints can never be silently joined into a different study.
//   - dayref_NNNNNN.ckpt — one record per completed day: an 8-byte magic,
//     the format version, a length-prefixed gob payload (a DayRef: the
//     name and SHA-256 of the day's sealed column file, internal/daystore)
//     and a CRC-32 trailer. Truncation, bit rot and version skew are all
//     detected and reported as errors, never decoded as garbage. The
//     journal never holds measurements itself.
//
// Every file is written to a temporary name in the same directory,
// synced, and atomically renamed into place, so a crash mid-write leaves
// either the previous state or a complete new file — never a torn one.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"dnsddos/internal/atomicfile"
	"dnsddos/internal/clock"
)

// Version is the on-disk format version; bump on incompatible change.
// Version 1 journals embedded each day as a gob blob (day_NNNNNN.ckpt);
// they are refused on resume rather than re-swept or half-trusted.
const Version = 2

const headerName = "header.json"

var magic = []byte("DNSCKPT1")

// Header identifies the run a checkpoint directory belongs to.
type Header struct {
	Version    int    `json:"version"`
	ConfigHash string `json:"config_hash"`
	Seed       uint64 `json:"seed"`
}

// Dir is an open checkpoint directory.
type Dir struct {
	path string
	hdr  Header
}

// Create initializes path for a fresh run: leftovers from previous runs
// (day files and header) are removed and a new header is written
// atomically. The directory is created if needed.
func Create(path string, hdr Header) (*Dir, error) {
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: creating %s: %w", path, err)
	}
	// every record type shares the .ckpt suffix — day references, stream
	// cursors, and named auxiliary records (distributed join ranges) are
	// all stale state of the previous run and must go
	old, err := filepath.Glob(filepath.Join(path, "*.ckpt"))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: scanning %s: %w", path, err)
	}
	old = append(old, filepath.Join(path, headerName))
	for _, f := range old {
		if err := os.Remove(f); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("checkpoint: clearing %s: %w", f, err)
		}
	}
	hdr.Version = Version
	b, err := json.MarshalIndent(hdr, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("checkpoint: encoding header: %w", err)
	}
	if err := atomicfile.Write(path, headerName, b); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return &Dir{path: path, hdr: hdr}, nil
}

// Resume opens an existing checkpoint directory for the run identified
// by hdr (whose Version field is ignored; the library version applies).
// It refuses — with an error, not a fresh start — when the directory has
// no header or the header names a different configuration, version or
// seed: resuming against a mismatched configuration would join two
// different worlds' measurements.
func Resume(path string, hdr Header) (*Dir, error) {
	b, err := os.ReadFile(filepath.Join(path, headerName))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: no resumable run in %s: %w", path, err)
	}
	var got Header
	if err := json.Unmarshal(b, &got); err != nil {
		return nil, fmt.Errorf("checkpoint: corrupt header in %s: %w", path, err)
	}
	if got.Version != Version {
		return nil, fmt.Errorf("checkpoint: %s has format version %d, this build writes %d", path, got.Version, Version)
	}
	if got.ConfigHash != hdr.ConfigHash || got.Seed != hdr.Seed {
		return nil, fmt.Errorf("checkpoint: refusing to resume %s: checkpointed run has config hash %s seed %d, current run has %s seed %d",
			path, got.ConfigHash, got.Seed, hdr.ConfigHash, hdr.Seed)
	}
	hdr.Version = Version
	return &Dir{path: path, hdr: hdr}, nil
}

// Path returns the directory path.
func (d *Dir) Path() string { return d.path }

// EncodeFrame gob-encodes v into the standard checkpoint envelope:
// magic, version, length-prefixed payload, CRC-32 trailer. The frame is
// self-delimiting, so callers may concatenate frames into one file (the
// stream backlog spill does) and decode them back with DecodeFrame.
func EncodeFrame(v any) ([]byte, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(v); err != nil {
		return nil, fmt.Errorf("checkpoint: encoding frame: %w", err)
	}
	var buf bytes.Buffer
	buf.Write(magic)
	var fixed [12]byte
	binary.BigEndian.PutUint32(fixed[0:4], Version)
	binary.BigEndian.PutUint64(fixed[4:12], uint64(payload.Len()))
	buf.Write(fixed[:])
	buf.Write(payload.Bytes())
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], crc32.ChecksumIEEE(payload.Bytes()))
	buf.Write(crc[:])
	return buf.Bytes(), nil
}

// DecodeFrame integrity-checks one frame produced by EncodeFrame and
// decodes its gob payload into v. Every failure — bad magic, version
// skew, truncation, CRC mismatch, decode error — is an error; a frame is
// either fully trusted or refused.
func DecodeFrame(b []byte, v any) error {
	if len(b) < len(magic)+12+4 || !bytes.Equal(b[:len(magic)], magic) {
		return errors.New("checkpoint: truncated or not a checkpoint frame")
	}
	rest := b[len(magic):]
	ver := binary.BigEndian.Uint32(rest[0:4])
	if ver != Version {
		return fmt.Errorf("checkpoint: frame format version %d, this build reads %d", ver, Version)
	}
	plen := binary.BigEndian.Uint64(rest[4:12])
	rest = rest[12:]
	if uint64(len(rest)) != plen+4 {
		return fmt.Errorf("checkpoint: truncated frame payload (%d of %d bytes)", len(rest), plen+4)
	}
	payload, trailer := rest[:plen], rest[plen:]
	if got, want := crc32.ChecksumIEEE(payload), binary.BigEndian.Uint32(trailer); got != want {
		return fmt.Errorf("checkpoint: frame crc mismatch (%08x != %08x)", got, want)
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(v); err != nil {
		return fmt.Errorf("checkpoint: decoding frame payload: %w", err)
	}
	return nil
}

// Every journal record — sealed-day references, stream cursors,
// distributed-join plans and ranges — is one named, CRC-framed, atomically
// published gob value written with Write and read with Load; the typed
// helpers (WriteDayRef, Cursor) are conveniences layered on the two.

// Write durably records v under name (a bare *.ckpt filename) in the
// standard envelope — EncodeFrame, then atomic rename + directory fsync.
// The distributed-join coordinator journals its join-shard results and
// plan fingerprint this way so a killed coordinator resumes without
// re-joining completed shard ranges.
func (d *Dir) Write(name string, v any) error {
	if err := validRecordName(name); err != nil {
		return err
	}
	b, err := EncodeFrame(v)
	if err != nil {
		return fmt.Errorf("checkpoint: encoding %s: %w", name, err)
	}
	if err := atomicfile.Write(d.path, name, b); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// Load reads dir/name and decodes it with DecodeFrame. The boolean is
// false when no such record exists; a record that exists but fails any
// check (magic, version, length, CRC, decode) is an error, never silently
// skipped.
func (d *Dir) Load(name string, v any) (bool, error) {
	if err := validRecordName(name); err != nil {
		return false, err
	}
	full := filepath.Join(d.path, name)
	b, err := os.ReadFile(full)
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("checkpoint: reading %s: %w", full, err)
	}
	if err := DecodeFrame(b, v); err != nil {
		return false, fmt.Errorf("%s: %w", full, err)
	}
	return true, nil
}

// validRecordName rejects names that would escape the directory or dodge
// the Create-time cleanup glob.
func validRecordName(name string) error {
	if name == "" || name != filepath.Base(name) || filepath.Ext(name) != ".ckpt" {
		return fmt.Errorf("checkpoint: invalid record name %q (want a bare *.ckpt filename)", name)
	}
	return nil
}

// DayRef is the journal's only day record: it points at the day's sealed
// columnar file (internal/daystore), so the journal stays O(refs) while
// the bulk data lives in the mmap-friendly column files. The content hash
// pins the exact sealed bytes, so a resume can refuse a swapped or rotted
// file with the same severity a CRC-mismatched record gets.
type DayRef struct {
	// File is the sealed file's bare name inside the day-store directory.
	File string
	// SHA256 is the hex content hash of the sealed file.
	SHA256 string
}

func dayRefFile(day clock.Day) string { return fmt.Sprintf("dayref_%06d.ckpt", int32(day)) }

// WriteDayRef durably records that day's snapshot was sealed into the
// referenced column file.
func (d *Dir) WriteDayRef(day clock.Day, ref DayRef) error {
	return d.Write(dayRefFile(day), &ref)
}

// LoadDayRef reads one day's sealed-file reference; the boolean is false
// when the day has none.
func (d *Dir) LoadDayRef(day clock.Day) (DayRef, bool, error) {
	var ref DayRef
	ok, err := d.Load(dayRefFile(day), &ref)
	if err != nil {
		return DayRef{}, false, err
	}
	return ref, ok, nil
}

// LoadDayRefs reads every recorded day reference in [from, to]. Any
// corrupt record fails the whole load: a resume must either trust its
// checkpoints or refuse them.
func (d *Dir) LoadDayRefs(from, to clock.Day) (map[clock.Day]DayRef, error) {
	out := make(map[clock.Day]DayRef)
	for day := from; day <= to; day++ {
		ref, ok, err := d.LoadDayRef(day)
		if err != nil {
			return nil, err
		}
		if ok {
			out[day] = ref
		}
	}
	return out, nil
}
