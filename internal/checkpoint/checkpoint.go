// Package checkpoint is the journal of a study run: it records which
// day-shards completed so a killed run can resume from the last durable
// day instead of day 0 (DESIGN §3.2). A checkpoint directory holds
//
//   - header.json — the run identity: the journal's layout version, a hash
//     of the full study configuration, and the measurement seed. Resume
//     refuses a directory whose header does not match the current run, so
//     stale checkpoints can never be silently joined into a different
//     study, nor a directory of another layout half-read.
//   - days.ckpt — the day log: one frame per completed day, appended in
//     completion order. A frame is an 8-byte magic, the frame version, a
//     length-prefixed binary DayRef (the day, and the name and SHA-256 of
//     its sealed column file, internal/daystore) and a CRC-32 trailer. An
//     append is one write from one reused buffer and one fsync; the
//     directory is synced once, when a run opens the log. The journal
//     never holds measurements itself.
//   - stream_cursor.ckpt — the stream's emission frontier (cursor.go), one
//     frame replaced in place through internal/atomicfile: written to a
//     temporary name, synced, and atomically renamed, as header.json is.
//
// Recovery is the write-ahead log's rule. A final frame whose header, or
// whose declared payload plus CRC, runs past the end of the log is an
// append that was never acknowledged: it is dropped, its day is swept
// again, and a resume cuts the log back to its last complete frame before
// it appends anything. Everything else refuses the resume — a complete
// frame that fails its magic, version, length bound, CRC or decode; damage
// with more bytes after it, such as a header whose length swallows the
// frames behind it; a day logged again with the reference it already has
// — so a journal is either trusted or refused, never decoded as garbage.
// A day logged again with another reference is a re-seal (a study sweeps
// a quarantine's fallback day again); its reader decides which of the
// day's references to trust.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"dnsddos/internal/atomicfile"
	"dnsddos/internal/clock"
)

// Version is the frame format version, in the header of every frame the
// journal writes; bump on incompatible change.
const Version = 3

// layoutVersion is the version header.json records: how a checkpoint
// directory lays out its records, apart from the frame they ride in.
// Layout 1 embedded each day as a gob blob, layout 2 kept one reference
// file per day, layout 3 appends every day to one log, layout 4 lets a
// day be logged again by a re-seal (and its days were swept with a
// random stream per domain, where layout 3's drew one per day, so the two
// must not be mixed in one run), layout 5 frames layout 4 at Version 3.
// Another layout is refused on resume, not re-swept or half-trusted.
const layoutVersion = 5

const headerName = "header.json"

// DayLog is the name of the day log in a checkpoint directory.
const DayLog = "days.ckpt"

// Header identifies the run a checkpoint directory belongs to.
type Header struct {
	Version    int    `json:"version"`
	ConfigHash string `json:"config_hash"`
	Seed       uint64 `json:"seed"`
}

// Dir is an open checkpoint directory. It is not safe for concurrent
// use: a run appends from one goroutine at a time.
type Dir struct {
	path string
	dir  *atomicfile.Dir // the directory, held open for publishing and syncing
	log  *os.File        // the day log, once the first append or load opened it
	buf  []byte          // the frame every append encodes into
}

// Create initializes path for a fresh run: leftovers from previous runs
// (the day log and every other record, the header, and the temp files of
// a writer killed before its rename) are removed and a new header is
// written atomically. The directory is created if needed; files of other
// names are left alone.
func Create(path string, hdr Header) (*Dir, error) {
	entries, err := os.ReadDir(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("checkpoint: scanning %s: %w", path, err)
	}
	for _, e := range entries {
		// every record shares the .ckpt suffix — the day log, the stream
		// cursor, and the per-day records an older layout journaled — and
		// all are stale state of the previous run that must go
		name := e.Name()
		if final, ok := atomicfile.Leftover(name); ok {
			name = final
		}
		if filepath.Ext(name) != ".ckpt" && name != headerName {
			continue
		}
		if err := os.Remove(filepath.Join(path, e.Name())); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("checkpoint: clearing %s: %w", e.Name(), err)
		}
	}
	hdr.Version = layoutVersion
	b, err := json.MarshalIndent(hdr, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("checkpoint: encoding header: %w", err)
	}
	dir, err := atomicfile.OpenDir(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	if err := dir.Write(headerName, b); err != nil {
		dir.Close()
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return &Dir{path: path, dir: dir}, nil
}

// Resume opens an existing checkpoint directory for the run identified
// by hdr (whose Version field is ignored; the build's layout applies).
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
	if got.Version != layoutVersion {
		return nil, fmt.Errorf("checkpoint: %s has format version %d, this build writes %d", path, got.Version, layoutVersion)
	}
	if got.ConfigHash != hdr.ConfigHash || got.Seed != hdr.Seed {
		return nil, fmt.Errorf("checkpoint: refusing to resume %s: checkpointed run has config hash %s seed %d, current run has %s seed %d",
			path, got.ConfigHash, got.Seed, hdr.ConfigHash, hdr.Seed)
	}
	dir, err := atomicfile.OpenDir(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return &Dir{path: path, dir: dir}, nil
}

// Path returns the directory path.
func (d *Dir) Path() string { return d.path }

// Close releases the directory and the day log, if this Dir opened it.
// Every append is already durable when it returns: nothing is flushed.
func (d *Dir) Close() error {
	var logErr error
	if d.log != nil {
		logErr = d.log.Close()
	}
	return errors.Join(logErr, d.dir.Close())
}

// The frame is the tree's one envelope outside day files — every journal
// record: magic, u32 version, u64 payload length, the payload, a CRC-32
// of the payload. maxPayload bounds the length a frame may declare.
const (
	magic      = "DNSCKPT1"
	headerLen  = len(magic) + 4 + 8
	maxPayload = 64 << 20
)

// Record is a frame's payload, *DayRef or *Cursor: big-endian integers,
// u32-length-prefixed strings and bool bytes, in field order.
type Record interface {
	appendPayload(dst []byte) []byte
	decodePayload(p []byte) error
}

// EncodeFrame encodes r into one self-delimiting frame; a payload that
// DecodeFrame would refuse as too long is refused here.
func EncodeFrame(r Record) ([]byte, error) {
	return endFrame(r.appendPayload(beginFrame(nil)), nil)
}

// beginFrame appends a frame header whose length endFrame stamps.
func beginFrame(dst []byte) []byte {
	b := binary.BigEndian.AppendUint32(append(dst, magic...), Version)
	return binary.BigEndian.AppendUint64(b, 0)
}

// endFrame stamps the length of the frame b holds after dst and appends
// its CRC, or returns dst as it was with EncodeFrame's refusal.
func endFrame(b, dst []byte) ([]byte, error) {
	frame := b[len(dst):]
	n := len(frame) - headerLen
	if n > maxPayload {
		return dst, fmt.Errorf("checkpoint: frame payload of %d bytes exceeds %d", n, maxPayload)
	}
	binary.BigEndian.PutUint64(frame[len(magic)+4:], uint64(n))
	return binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(frame[headerLen:])), nil
}

// payloadLen checks a frame header — magic, version, length bound — and
// returns the payload length it declares.
func payloadLen(hdr []byte) (uint64, error) {
	if string(hdr[:len(magic)]) != magic {
		return 0, fmt.Errorf("checkpoint: not a checkpoint frame (magic %q)", hdr[:len(magic)])
	}
	if ver := binary.BigEndian.Uint32(hdr[len(magic):]); ver != Version {
		return 0, fmt.Errorf("checkpoint: frame format version %d, this build reads %d", ver, Version)
	}
	n := binary.BigEndian.Uint64(hdr[len(magic)+4:])
	if n > maxPayload {
		return 0, fmt.Errorf("checkpoint: frame payload length %d exceeds %d", n, maxPayload)
	}
	return n, nil
}

// DecodeFrame decodes the one frame b holds into r. Every failure —
// fewer bytes than the header or than the length it declares (a
// truncation), magic, version, length bound, bytes after the frame, CRC,
// decode — is an error that leaves r as it was: a frame is fully trusted
// or refused. The payload is read where it lies: a bad length costs nothing.
func DecodeFrame(b []byte, r Record) error {
	if len(b) < headerLen {
		return fmt.Errorf("checkpoint: truncated or not a checkpoint frame (%d bytes)", len(b))
	}
	n, err := payloadLen(b)
	if err != nil {
		return err
	}
	body := b[headerLen:]
	if uint64(len(body)) < n+4 {
		return fmt.Errorf("checkpoint: truncated frame payload (%d of %d bytes)", len(body), n+4)
	}
	if extra := uint64(len(body)) - (n + 4); extra != 0 {
		return fmt.Errorf("checkpoint: %d stray bytes after the frame", extra)
	}
	payload, trailer := body[:n], body[n:]
	if got, want := crc32.ChecksumIEEE(payload), binary.BigEndian.Uint32(trailer); got != want {
		return fmt.Errorf("checkpoint: frame crc mismatch (%08x != %08x)", got, want)
	}
	if err := r.decodePayload(payload); err != nil {
		return fmt.Errorf("checkpoint: decoding frame payload: %w", err)
	}
	return nil
}

// appendString appends s with its u32 length in front.
func appendString(dst []byte, s string) []byte {
	return append(binary.BigEndian.AppendUint32(dst, uint32(len(s))), s...)
}

// errShortPayload refuses a payload that ends inside a field.
var errShortPayload = errors.New("payload ends inside a field")

// cutString cuts a u32-length-prefixed string off the front of p into s.
func cutString(p []byte, s *string) ([]byte, error) {
	if len(p) < 4 || uint64(len(p)-4) < uint64(binary.BigEndian.Uint32(p)) {
		return nil, errShortPayload
	}
	n := 4 + int(binary.BigEndian.Uint32(p))
	*s = string(p[4:n])
	return p[n:], nil
}

// DayRef is the journal's only day record: it points at the day's sealed
// columnar file (internal/daystore), so the journal stays O(refs) while
// the bulk data lives in the mmap-friendly column files. The content hash
// pins the exact sealed bytes, so a resume can refuse a swapped or rotted
// file with the same severity a CRC-mismatched record gets.
type DayRef struct {
	// Day is the day the referenced file holds.
	Day clock.Day
	// File is the sealed file's bare name inside the day-store directory.
	File string
	// SHA256 is the hex content hash of the sealed file.
	SHA256 string
}

func (r *DayRef) appendPayload(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(r.Day))
	return appendString(appendString(dst, r.File), r.SHA256)
}

func (r *DayRef) decodePayload(p []byte) error {
	if len(p) < 4 {
		return errShortPayload
	}
	v := DayRef{Day: clock.Day(int32(binary.BigEndian.Uint32(p)))}
	p, err := cutString(p[4:], &v.File)
	if err == nil {
		p, err = cutString(p, &v.SHA256)
	}
	if err == nil && len(p) > 0 {
		err = fmt.Errorf("%d bytes after the last field", len(p))
	}
	if err == nil {
		*r = v
	}
	return err
}

// WriteDayRef durably records that day's snapshot was sealed into the
// referenced column file: one frame appended to the day log in one write,
// then an fsync. The first append of a Dir that has not loaded the log
// opens it as LoadDayRefs does; after it, an append allocates nothing.
func (d *Dir) WriteDayRef(day clock.Day, ref DayRef) error {
	if d.log == nil {
		if _, err := d.openLog(); err != nil {
			return err
		}
	}
	ref.Day = day
	b, err := endFrame(ref.appendPayload(beginFrame(d.buf[:0])), d.buf[:0])
	if err != nil {
		return fmt.Errorf("checkpoint: encoding day %s: %w", day, err)
	}
	d.buf = b
	if _, err := d.log.Write(b); err != nil {
		return fmt.Errorf("checkpoint: appending day %s: %w", day, err)
	}
	if err := d.log.Sync(); err != nil {
		return fmt.Errorf("checkpoint: syncing day %s: %w", day, err)
	}
	return nil
}

// LoadDayRefs reads the day log once and returns its references in
// [from, to], each day's in log order: a day journaled more than once (a
// study re-seals a day its quarantine fallback widens) has one entry per
// record, the latest last. The first load of a Dir opens the log for appends, creating
// it if needed and syncing the directory once, and cuts a torn final frame
// off it before anything is appended. Any other damage fails the whole
// load: a resume must either trust its checkpoints or refuse them.
func (d *Dir) LoadDayRefs(from, to clock.Day) (map[clock.Day][]DayRef, error) {
	var refs []DayRef
	var err error
	if d.log == nil {
		refs, err = d.openLog()
	} else {
		refs, err = recoverLog(d.log)
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %s: %w", filepath.Join(d.path, DayLog), err)
	}
	out := make(map[clock.Day][]DayRef, len(refs))
	for _, ref := range refs {
		if ref.Day >= from && ref.Day <= to {
			out[ref.Day] = append(out[ref.Day], ref)
		}
	}
	return out, nil
}

// openLog opens the day log for appends and returns what it holds,
// recovered by recoverLog.
func (d *Dir) openLog() ([]DayRef, error) {
	f, err := os.OpenFile(filepath.Join(d.path, DayLog), os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	refs, err := recoverLog(f)
	if err == nil {
		err = d.dir.Sync()
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	d.log = f
	return refs, nil
}

// recoverLog reads the log f and truncates a torn final frame off it, so
// the next append follows the last complete frame.
func recoverLog(f *os.File) ([]DayRef, error) {
	st, err := f.Stat()
	if err != nil || st.Size() == 0 {
		return nil, err
	}
	b := make([]byte, st.Size())
	if _, err := f.ReadAt(b, 0); err != nil {
		return nil, err
	}
	refs, n, err := readDayRefLog(b)
	if err != nil || n == len(b) {
		return refs, err
	}
	if err := f.Truncate(int64(n)); err != nil {
		return nil, err
	}
	return refs, f.Sync()
}

// ReadDayRefs reads the day log of the checkpoint directory at path
// without opening it for appends, and returns the references of its
// complete frames in log order. A torn final frame is left where it is —
// a live run may be writing it — and a missing log reads as empty. No
// production path calls it; the tests of checkpoint and study read a
// run's journal with it.
func ReadDayRefs(path string) ([]DayRef, error) {
	full := filepath.Join(path, DayLog)
	b, err := os.ReadFile(full)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint: reading %s: %w", full, err)
	}
	refs, _, err := readDayRefLog(b)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %s: %w", full, err)
	}
	return refs, nil
}

// readDayRefLog parses a day log: the references of its complete frames
// in log order, and the length of the prefix they fill. Only an
// incomplete final frame ends it early — fewer bytes than a header, or a
// valid header whose payload and CRC run past the end of b — and only
// when no other frame starts inside it: a torn append is one frame, so a
// header whose length swallows the frames behind it is damage. A complete
// frame that fails any check, and a day logged again with the reference
// its previous frame holds, is an error.
func readDayRefLog(b []byte) (refs []DayRef, n int, err error) {
	last := make(map[clock.Day]DayRef)
	for n < len(b) {
		rest := b[n:]
		var size uint64
		torn := len(rest) < headerLen
		if !torn {
			if size, err = payloadLen(rest); err != nil {
				return nil, 0, fmt.Errorf("frame at offset %d: %w", n, err)
			}
			torn = size+4 > uint64(len(rest)-headerLen)
		}
		if torn {
			if bytes.Contains(rest[1:], []byte(magic)) {
				return nil, 0, fmt.Errorf("frame at offset %d runs past the end of the log over the frames behind it", n)
			}
			break
		}
		end := headerLen + int(size) + 4
		var ref DayRef
		if err := DecodeFrame(rest[:end], &ref); err != nil {
			return nil, 0, fmt.Errorf("frame at offset %d: %w", n, err)
		}
		if prev, ok := last[ref.Day]; ok && prev == ref {
			return nil, 0, fmt.Errorf("frame at offset %d: day %s logged twice with the same reference", n, ref.Day)
		}
		last[ref.Day] = ref
		refs = append(refs, ref)
		n += end
	}
	return refs, n, nil
}
