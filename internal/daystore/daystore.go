// Package daystore is the out-of-core columnar day-snapshot store
// (DESIGN §3.9): one sealed, immutable file per study day holding that
// day's NSSet aggregates as sorted fixed-width big-endian columns plus a
// string table, CRC-guarded and loaded as mmap-backed lazy views. It is
// the core.DayStore every study run joins — observation-equivalent to the
// nsset.Aggregator a day is sealed from, and the representation that lets
// ≥1M-domain sweeps join with flat RSS: the join maps day files on demand
// (a run that persists nothing holds the same images in memory: Set.Put).
//
// File layout (day_NNNNNN.dcol, all integers big-endian):
//
//	header (40 B): magic "DNSCOL1\n" · u32 version · i32 day ·
//	               u32 nKeys · u32 nBase · u32 nWin · u64 strLen ·
//	               u32 headerCRC (CRC-32/IEEE over bytes [0,36))
//	keyTab  (nKeys × 24 B): u64 strOff · u32 strLen · u32 baseRow
//	               (0xFFFFFFFF = no baseline) · u32 winRow · u32 winCnt
//	strTab  (strLen B): concatenated NSSet key bytes, rows sorted
//	               ascending by key bytes
//	baseCol (nBase × 24 B): i64 okCount · i64 sumRTT(ns) · i64 domains
//	winCol  (nWin × 64 B): i64 window · i64 domains · i64 okCount ·
//	               i64 timeouts · i64 servFails · i64 sumRTT(ns) ·
//	               i64 minRTT(ns) · i64 maxRTT(ns); rows grouped by key
//	               (keyTab order), windows ascending within a key
//	trailer (4 B): u32 bodyCRC (CRC-32/IEEE over [40, size-4))
//
// Every aggregate field is an integer, so a round-trip through the store
// is exact — Eq. 1 float math downstream sees identical operands either
// way. Files are written via the atomic seal discipline (temp file +
// fsync + rename + parent-directory fsync), so a crash mid-seal leaves
// only an ignorable *.tmp-* leftover, never a torn visible file; loads
// refuse truncation, bit rot, version skew and header/name disagreement
// with a typed error (errors.Is(err, ErrCorrupt)), mirroring the
// checkpoint journal's refusal contract.
package daystore

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"dnsddos/internal/clock"
)

// Version is the on-disk column format version; bump on incompatible
// change.
const Version = 1

var magic = []byte("DNSCOL1\n")

const (
	headerLen  = 40
	keyRowLen  = 24
	baseRowLen = 24
	winRowLen  = 64
	trailerLen = 4
	// noBaseline marks a keyTab row without a baseline column entry.
	noBaseline = ^uint32(0)
)

// ErrCorrupt is the sentinel every load-time integrity failure matches:
// errors.Is(err, ErrCorrupt) is true for truncated files, CRC mismatches,
// version skew, malformed column bounds, and content-hash mismatches
// against a checkpoint reference. I/O errors (missing file, permissions)
// are not corruption and do not match.
var ErrCorrupt = errors.New("daystore: corrupt column file")

// CorruptError describes one refused column file.
type CorruptError struct {
	// Path is the refused file.
	Path string
	// Detail says which integrity check failed.
	Detail string
}

// Error renders the refusal.
func (e *CorruptError) Error() string {
	return fmt.Sprintf("daystore: %s: %s", e.Path, e.Detail)
}

// Is makes errors.Is(err, ErrCorrupt) match.
func (e *CorruptError) Is(target error) bool { return target == ErrCorrupt }

// corruptf builds a CorruptError.
func corruptf(path, format string, args ...any) error {
	return &CorruptError{Path: path, Detail: fmt.Sprintf(format, args...)}
}

// fileSuffix is the sealed-day filename extension.
const fileSuffix = ".dcol"

const filePrefix = "day_"

// FileName returns the canonical sealed filename for a day, "day_%06d.dcol".
func FileName(day clock.Day) string {
	num := strconv.AppendInt(make([]byte, 0, 11), int64(day), 10)
	pad := max(0, 6-len(num))
	b := append(make([]byte, 0, 32), filePrefix...)
	if day < 0 {
		b, num = append(b, '-'), num[1:]
	}
	b = append(append(b, "000000"[:pad]...), num...)
	return string(append(b, fileSuffix...))
}

// parseFileName extracts the day from a canonical sealed filename; ok is
// false for anything else (including *.tmp-* seal leftovers).
func parseFileName(name string) (clock.Day, bool) {
	if !strings.HasPrefix(name, filePrefix) || !strings.HasSuffix(name, fileSuffix) {
		return 0, false
	}
	mid := name[len(filePrefix) : len(name)-len(fileSuffix)]
	n, err := strconv.ParseInt(mid, 10, 32)
	if err != nil {
		return 0, false
	}
	return clock.Day(n), true
}
