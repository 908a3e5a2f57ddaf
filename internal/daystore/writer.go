package daystore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"

	"dnsddos/internal/atomicfile"
	"dnsddos/internal/clock"
	"dnsddos/internal/nsset"
)

// writer.go encodes a measured day as an immutable per-day column file.
// The run loops seal straight from the aggregator's day table: AppendDay
// walks it in key order into a caller-owned buffer, and the run's
// daystore.Set publishes or keeps that image (Set.Seal, Set.Put).
// EncodeDay and SealDay take the same day as a value-typed nsset.Snapshot
// instead: the oracle the direct path is held to byte for byte, and the
// one entry whose input can be malformed (rows of another day,
// duplicates, disorder — all refused). Both paths write through one
// column writer (dayImage) and publish through internal/atomicfile — temp
// file, fsync, rename, parent-directory fsync — so a visible day file is
// always complete. A published file comes back with its ContentHash,
// which checkpoint.DayRef records pin; an image kept in memory is never
// hashed.

// SealedFile identifies one published day file by name and content hash.
// The hash is over the exact file bytes; checkpoint day references store
// it so resume can refuse a swapped or rotted file.
type SealedFile struct {
	Day    clock.Day
	Name   string
	SHA256 string
}

// keyRows is one NSSet's contribution to a day file. Both fields alias
// the snapshot being sealed; nothing is copied before the encode.
type keyRows struct {
	key  nsset.Key
	base *nsset.DayBaseline
	wins []nsset.WindowSnap
}

// AppendDay appends day's sealed file image to dst, encoded straight
// from the aggregator's day table, and returns the extended slice. The
// bytes are EncodeDay(day, agg.Snapshot())'s. The aggregator must hold no
// other day — the seal input is one completed day-shard; an aggregator
// that measured nothing seals a valid empty file.
func AppendDay(dst []byte, day clock.Day, agg *nsset.Aggregator) ([]byte, error) {
	if d, ok := agg.ForeignDay(day); ok {
		return dst, fmt.Errorf("daystore: sealing day %d: aggregator holds day %d", int32(day), int32(d))
	}
	nKeys, nWin, strLen := 0, 0, 0
	agg.WalkDay(day, func(k nsset.Key, _ *nsset.DayBaseline, windows int) {
		nKeys++
		nWin += windows
		strLen += len(k)
	}, nil)
	// every row of an aggregator has a baseline
	im := beginImage(dst, day, nKeys, nKeys, nWin, strLen)
	agg.WalkDay(day, im.row, im.window)
	return im.finish(), nil
}

// SealDay encodes the snapshot as day's column file and atomically
// publishes it in dir (creating dir if needed), replacing any previous
// seal of the same day. Every snapshot row must belong to day — a window
// of another day or a foreign-day baseline is an error, as is a duplicate
// (key, window) or (key, day) row, or a row out of the order
// nsset.Snapshot documents: the seal input is one completed day-shard,
// and silently merging, dropping or re-sorting rows here could diverge
// from the in-memory path. An empty snapshot seals a valid empty file.
func SealDay(dir string, day clock.Day, snap nsset.Snapshot) (SealedFile, error) {
	image, sum, err := EncodeDay(day, snap)
	if err != nil {
		return SealedFile{}, err
	}
	return publishIn(dir, day, image, sum)
}

// EncodeDay renders the snapshot as day's sealed file image without
// touching disk, together with the hex SHA-256 of those bytes. The input
// rules are SealDay's.
func EncodeDay(day clock.Day, snap nsset.Snapshot) (image []byte, sha256Hex string, err error) {
	rows, err := collectDay(day, snap)
	if err != nil {
		return nil, "", fmt.Errorf("daystore: sealing day %d: %w", int32(day), err)
	}
	nBase, strLen := 0, 0
	for i := range rows {
		if rows[i].base != nil {
			nBase++
		}
		strLen += len(rows[i].key)
	}
	im := beginImage(nil, day, len(rows), nBase, len(snap.Windows), strLen)
	for i := range rows {
		r := &rows[i]
		im.row(r.key, r.base, len(r.wins))
		for wi := range r.wins {
			im.window(&r.wins[wi].M)
		}
	}
	image = im.finish()
	return image, ContentHash(image), nil
}

// ContentHash is the hex SHA-256 a sealed file is referenced by: what a
// checkpoint.DayRef records.
func ContentHash(image []byte) string {
	sum := sha256.Sum256(image)
	return string(hex.AppendEncode(make([]byte, 0, 2*sha256.Size), sum[:]))
}

// collectDay merges the snapshot's two lists into one row per key in a
// single pass, relying on the order nsset.Snapshot documents: windows by
// (Key, Window) and, within one day, baselines by Key. That is already
// the file's order, so nothing is regrouped or sorted; a row of another
// day, a duplicate (key, window) or baseline, and a row that breaks the
// order are all refused.
func collectDay(day clock.Day, snap nsset.Snapshot) ([]keyRows, error) {
	rows := make([]keyRows, 0, len(snap.Baselines))
	wins, bases := snap.Windows, snap.Baselines
	for len(wins) > 0 || len(bases) > 0 {
		// The next key is the smaller head of the two lists.
		var r keyRows
		if len(bases) > 0 && (len(wins) == 0 || bases[0].Key <= wins[0].Key) {
			if d := bases[0].B.Day; d != day {
				return nil, fmt.Errorf("baseline belongs to day %d", int32(d))
			}
			r.key, r.base = bases[0].Key, &bases[0].B
			bases = bases[1:]
		} else {
			r.key = wins[0].Key
		}
		if last := len(rows) - 1; last >= 0 && r.key <= rows[last].key {
			if r.base != nil && r.key == rows[last].key {
				return nil, fmt.Errorf("duplicate baseline for key %s", r.key)
			}
			return nil, fmt.Errorf("key %s out of order after %s", r.key, rows[last].key)
		}
		n := 0
		for ; n < len(wins) && wins[n].Key == r.key; n++ {
			switch w := wins[n].M.Window; {
			case w.Day() != day:
				return nil, fmt.Errorf("window %d belongs to day %d", int64(w), int32(w.Day()))
			case n > 0 && wins[n-1].M.Window == w:
				return nil, fmt.Errorf("duplicate window %d for key %s", int64(w), r.key)
			case n > 0 && wins[n-1].M.Window > w:
				return nil, fmt.Errorf("window %d out of order for key %s", int64(w), r.key)
			}
		}
		r.wins, wins = wins[:n], wins[n:]
		rows = append(rows, r)
	}
	return rows, nil
}

// publishIn atomically writes one sealed image as day's file in dir,
// creating dir if needed.
func publishIn(dir string, day clock.Day, image []byte, sha256Hex string) (SealedFile, error) {
	name := FileName(day)
	d, err := atomicfile.OpenDir(dir)
	if err == nil {
		defer d.Close()
		err = d.Write(name, image)
	}
	if err != nil {
		return SealedFile{}, fmt.Errorf("daystore: %w", err)
	}
	return SealedFile{Day: day, Name: name, SHA256: sha256Hex}, nil
}

// dayImage writes one day file in the package's column format: beginImage
// lays out the header and the four column regions from the day's counts,
// row and window fill them in file order (rows ascending by key, each
// row's windows right after it), finish stamps the body CRC.
type dayImage struct {
	buf   []byte // what the image is appended to, then the image
	start int    // where the image begins in buf

	keyTab, strTab, baseCol, winCol []byte
	keys, strOff, baseRow, winRow   int
}

func beginImage(dst []byte, day clock.Day, nKeys, nBase, nWin, strLen int) dayImage {
	size := headerLen + nKeys*keyRowLen + strLen + nBase*baseRowLen + nWin*winRowLen + trailerLen
	im := dayImage{buf: append(dst, make([]byte, size)...), start: len(dst)}
	buf := im.buf[im.start:]
	copy(buf[0:8], magic)
	binary.BigEndian.PutUint32(buf[8:12], Version)
	binary.BigEndian.PutUint32(buf[12:16], uint32(int32(day)))
	binary.BigEndian.PutUint32(buf[16:20], uint32(nKeys))
	binary.BigEndian.PutUint32(buf[20:24], uint32(nBase))
	binary.BigEndian.PutUint32(buf[24:28], uint32(nWin))
	binary.BigEndian.PutUint64(buf[28:36], uint64(strLen))
	binary.BigEndian.PutUint32(buf[36:40], crc32.ChecksumIEEE(buf[0:36]))

	im.keyTab = buf[headerLen:][:nKeys*keyRowLen]
	im.strTab = buf[headerLen+nKeys*keyRowLen:][:strLen]
	im.baseCol = buf[headerLen+nKeys*keyRowLen+strLen:][:nBase*baseRowLen]
	im.winCol = buf[headerLen+nKeys*keyRowLen+strLen+nBase*baseRowLen:][:nWin*winRowLen]
	return im
}

// row writes the next key row: the key, its baseline (nil for none) and
// where its nWin windows, written next, sit in the window column.
func (im *dayImage) row(key nsset.Key, base *nsset.DayBaseline, nWin int) {
	kt := im.keyTab[im.keys*keyRowLen:]
	im.keys++
	binary.BigEndian.PutUint64(kt[0:8], uint64(im.strOff))
	binary.BigEndian.PutUint32(kt[8:12], uint32(len(key)))
	im.strOff += copy(im.strTab[im.strOff:], key)
	if base != nil {
		binary.BigEndian.PutUint32(kt[12:16], uint32(im.baseRow))
		bc := im.baseCol[im.baseRow*baseRowLen:]
		binary.BigEndian.PutUint64(bc[0:8], uint64(int64(base.OKCount)))
		binary.BigEndian.PutUint64(bc[8:16], uint64(int64(base.SumRTT)))
		binary.BigEndian.PutUint64(bc[16:24], uint64(int64(base.Domains)))
		im.baseRow++
	} else {
		binary.BigEndian.PutUint32(kt[12:16], noBaseline)
	}
	binary.BigEndian.PutUint32(kt[16:20], uint32(im.winRow))
	binary.BigEndian.PutUint32(kt[20:24], uint32(nWin))
}

// window writes the current row's next window.
func (im *dayImage) window(m *nsset.WindowMetrics) {
	wc := im.winCol[im.winRow*winRowLen:]
	im.winRow++
	binary.BigEndian.PutUint64(wc[0:8], uint64(int64(m.Window)))
	binary.BigEndian.PutUint64(wc[8:16], uint64(int64(m.Domains)))
	binary.BigEndian.PutUint64(wc[16:24], uint64(int64(m.OKCount)))
	binary.BigEndian.PutUint64(wc[24:32], uint64(int64(m.Timeouts)))
	binary.BigEndian.PutUint64(wc[32:40], uint64(int64(m.ServFails)))
	binary.BigEndian.PutUint64(wc[40:48], uint64(int64(m.SumRTT)))
	binary.BigEndian.PutUint64(wc[48:56], uint64(int64(m.MinRTT)))
	binary.BigEndian.PutUint64(wc[56:64], uint64(int64(m.MaxRTT)))
}

// finish stamps the body CRC and returns dst extended by the image.
func (im *dayImage) finish() []byte {
	buf := im.buf[im.start:]
	binary.BigEndian.PutUint32(buf[len(buf)-trailerLen:], crc32.ChecksumIEEE(buf[headerLen:len(buf)-trailerLen]))
	return im.buf
}

// Clear removes from dir every sealed day file, and seal leftover
// (*.tmp-*), of a day not in keep: what a run keeps of a previous one is
// exactly the days it restored. A missing directory is not an error.
func Clear(dir string, keep ...clock.Day) error {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("daystore: scanning %s: %w", dir, err)
	}
	for _, e := range entries {
		name := e.Name()
		if final, ok := atomicfile.Leftover(name); ok {
			name = final
		}
		if day, sealed := parseFileName(name); !sealed || slices.Contains(keep, day) {
			continue
		}
		if err := os.Remove(filepath.Join(dir, e.Name())); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("daystore: clearing %s: %w", e.Name(), err)
		}
	}
	return nil
}

// VerifyFile re-reads dir/name and checks its content hash against
// wantSHA256 (a checkpoint.DayRef). A mismatch — the file was swapped,
// rotted, or half-replaced — is a typed ErrCorrupt refusal; a missing
// file is an os.ErrNotExist-wrapping error.
func VerifyFile(dir, name, wantSHA256 string) error {
	full := filepath.Join(dir, name)
	b, err := os.ReadFile(full)
	if err != nil {
		return fmt.Errorf("daystore: reading %s: %w", full, err)
	}
	if got := ContentHash(b); got != wantSHA256 {
		return corruptf(full, "content hash %s does not match recorded %s", got, wantSHA256)
	}
	return nil
}
