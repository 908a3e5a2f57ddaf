package daystore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"time"

	"dnsddos/internal/clock"
	"dnsddos/internal/nsset"
)

// view.go is the read side: a View is one sealed day file mapped (or, on
// platforms without mmap, read) into memory and validated once — header
// magic/version/CRC, exact size arithmetic, body CRC, and column bounds.
// After OpenDay succeeds every accessor is a pure decode over the mapped
// bytes: lookups binary-search the sorted key table, a baseline is
// returned by value, and a ranged window read binary-searches the key's
// rows of the window column and decodes only the rows in range into the
// caller's buffer — nothing is materialized that was not asked for, and
// nothing lives resident for the whole run. A file that fails any check is
// refused with a typed *CorruptError at open; it is never partially
// readable.

// View is a read-only handle on one sealed day file. Safe for concurrent
// readers; Close unmaps (callers that share a View through daystore.Set
// never close it themselves).
type View struct {
	path  string
	day   clock.Day
	data  []byte
	unmap func() error

	nKeys, nBase, nWin int
	keyTab             []byte
	strTab             []byte
	baseCol            []byte
	winCol             []byte
}

// OpenDay opens and fully validates the sealed file for day at path. Any
// integrity failure — truncation, CRC mismatch, version skew, a header
// day disagreeing with the expected day, out-of-bounds column references
// — is a typed ErrCorrupt refusal. A missing file surfaces as the os
// error, not corruption.
func OpenDay(path string, day clock.Day) (*View, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("daystore: stat %s: %w", path, err)
	}
	data, unmap, err := mapFile(f, st.Size())
	if err != nil {
		return nil, fmt.Errorf("daystore: mapping %s: %w", path, err)
	}
	v, err := newView(path, day, data, unmap)
	if err != nil {
		unmap()
		return nil, err
	}
	return v, nil
}

// newView validates a sealed file image (mapped, or received from a peer)
// and slices the column sections.
func newView(path string, day clock.Day, data []byte, unmap func() error) (*View, error) {
	if len(data) < headerLen+trailerLen {
		return nil, corruptf(path, "file is %d bytes, smaller than the minimal %d-byte frame", len(data), headerLen+trailerLen)
	}
	if !bytes.Equal(data[0:8], magic) {
		return nil, corruptf(path, "bad magic (not a daystore column file)")
	}
	if got, want := binary.BigEndian.Uint32(data[36:40]), crc32.ChecksumIEEE(data[0:36]); got != want {
		return nil, corruptf(path, "header crc mismatch (%08x != %08x)", got, want)
	}
	if ver := binary.BigEndian.Uint32(data[8:12]); ver != Version {
		return nil, corruptf(path, "format version %d, this build reads %d", ver, Version)
	}
	if hd := clock.Day(int32(binary.BigEndian.Uint32(data[12:16]))); hd != day {
		return nil, corruptf(path, "header says day %d, expected day %d", int32(hd), int32(day))
	}
	nKeys := int(binary.BigEndian.Uint32(data[16:20]))
	nBase := int(binary.BigEndian.Uint32(data[20:24]))
	nWin := int(binary.BigEndian.Uint32(data[24:28]))
	strLen := binary.BigEndian.Uint64(data[28:36])

	// The header fields are untrusted: the three row counts are u32, so
	// their sections cannot overflow a u64 sum, but strLen is a full u64
	// and is only ever compared against what the file has left.
	body := data[headerLen : len(data)-trailerLen]
	fixed := uint64(nKeys)*keyRowLen + uint64(nBase)*baseRowLen + uint64(nWin)*winRowLen
	if fixed > uint64(len(body)) || strLen != uint64(len(body))-fixed {
		return nil, corruptf(path, "file is %d bytes, header implies %d keys, %d baselines, %d windows and %d string bytes (truncated or padded)",
			len(data), nKeys, nBase, nWin, strLen)
	}
	if got, wantCRC := binary.BigEndian.Uint32(data[len(data)-trailerLen:]), crc32.ChecksumIEEE(body); got != wantCRC {
		return nil, corruptf(path, "body crc mismatch (%08x != %08x)", got, wantCRC)
	}

	v := &View{
		path:  path,
		day:   day,
		data:  data,
		unmap: unmap,
		nKeys: nKeys,
		nBase: nBase,
		nWin:  nWin,
	}
	v.keyTab = data[headerLen : headerLen+nKeys*keyRowLen]
	off := headerLen + nKeys*keyRowLen
	v.strTab = data[off : off+int(strLen)]
	off += int(strLen)
	v.baseCol = data[off : off+nBase*baseRowLen]
	off += nBase * baseRowLen
	v.winCol = data[off : off+nWin*winRowLen]

	// Column-bound validation: the CRC guards against rot, but only the
	// bound checks make a CRC-consistent-yet-malformed file safe to index.
	for i := 0; i < nKeys; i++ {
		strOff, sl, baseRow, winRow, winCnt := v.keyRow(i)
		if strOff > strLen || uint64(sl) > strLen-strOff {
			return nil, corruptf(path, "key %d string [%d,+%d) exceeds string table (%d bytes)", i, strOff, sl, strLen)
		}
		if baseRow != noBaseline && int(baseRow) >= nBase {
			return nil, corruptf(path, "key %d baseline row %d out of range (%d rows)", i, baseRow, nBase)
		}
		if int(winRow)+int(winCnt) > nWin {
			return nil, corruptf(path, "key %d window rows [%d,+%d) out of range (%d rows)", i, winRow, winCnt, nWin)
		}
	}
	return v, nil
}

// Close unmaps the file. The View is unusable afterwards.
func (v *View) Close() error {
	if v.unmap == nil {
		return nil
	}
	u := v.unmap
	v.unmap = nil
	v.data, v.keyTab, v.strTab, v.baseCol, v.winCol = nil, nil, nil, nil, nil
	return u()
}

// Day returns the day the view serves.
func (v *View) Day() clock.Day { return v.day }

// NumKeys returns how many NSSets the day file holds.
func (v *View) NumKeys() int { return v.nKeys }

// keyRow decodes keyTab row i.
func (v *View) keyRow(i int) (strOff uint64, strLen, baseRow, winRow, winCnt uint32) {
	kt := v.keyTab[i*keyRowLen:]
	return binary.BigEndian.Uint64(kt[0:8]),
		binary.BigEndian.Uint32(kt[8:12]),
		binary.BigEndian.Uint32(kt[12:16]),
		binary.BigEndian.Uint32(kt[16:20]),
		binary.BigEndian.Uint32(kt[20:24])
}

// keyBytes returns row i's key bytes, aliasing the mapped file.
func (v *View) keyBytes(i int) []byte {
	strOff, strLen, _, _, _ := v.keyRow(i)
	return v.strTab[strOff : strOff+uint64(strLen)]
}

// Key returns row i's NSSet key (copied out of the mapping).
func (v *View) Key(i int) nsset.Key { return nsset.Key(v.keyBytes(i)) }

// find binary-searches the sorted key table. The row's bytes are compared
// as a string in place: the conversion inside a comparison copies nothing,
// where a []byte(k) would allocate for every key longer than the 32-byte
// stack temporary (9 addresses).
func (v *View) find(k nsset.Key) (int, bool) {
	lo, hi := 0, v.nKeys
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		switch row := v.keyBytes(mid); {
		case string(row) < string(k):
			lo = mid + 1
		case string(row) > string(k):
			hi = mid
		default:
			return mid, true
		}
	}
	return lo, false
}

// windowAt decodes window column row into m.
func (v *View) windowAt(row int, m *nsset.WindowMetrics) {
	wc := v.winCol[row*winRowLen:]
	m.Window = clock.Window(int64(binary.BigEndian.Uint64(wc[0:8])))
	m.Domains = int(int64(binary.BigEndian.Uint64(wc[8:16])))
	m.OKCount = int(int64(binary.BigEndian.Uint64(wc[16:24])))
	m.Timeouts = int(int64(binary.BigEndian.Uint64(wc[24:32])))
	m.ServFails = int(int64(binary.BigEndian.Uint64(wc[32:40])))
	m.SumRTT = time.Duration(int64(binary.BigEndian.Uint64(wc[40:48])))
	m.MinRTT = time.Duration(int64(binary.BigEndian.Uint64(wc[48:56])))
	m.MaxRTT = time.Duration(int64(binary.BigEndian.Uint64(wc[56:64])))
}

// winStart decodes the window number of window column row.
func (v *View) winStart(row int) clock.Window {
	return clock.Window(int64(binary.BigEndian.Uint64(v.winCol[row*winRowLen:][0:8])))
}

// Baseline returns k's day aggregate; false if k was not measured.
func (v *View) Baseline(k nsset.Key) (nsset.DayBaseline, bool) {
	i, ok := v.find(k)
	if !ok {
		return nsset.DayBaseline{}, false
	}
	_, _, baseRow, _, _ := v.keyRow(i)
	if baseRow == noBaseline {
		return nsset.DayBaseline{}, false
	}
	bc := v.baseCol[int(baseRow)*baseRowLen:]
	return nsset.DayBaseline{
		Day:     v.day,
		OKCount: int(int64(binary.BigEndian.Uint64(bc[0:8]))),
		SumRTT:  time.Duration(int64(binary.BigEndian.Uint64(bc[8:16]))),
		Domains: int(int64(binary.BigEndian.Uint64(bc[16:24]))),
	}, true
}

// AppendWindows appends k's windows w of this day with from ≤ w ≤ to to
// dst, ascending (the writer's invariant), and returns the extended slice.
// It binary-searches k's rows of the window column for from and decodes
// only the rows in range; the rest of the day is never touched.
func (v *View) AppendWindows(dst []nsset.WindowMetrics, k nsset.Key, from, to clock.Window) []nsset.WindowMetrics {
	i, ok := v.find(k)
	if !ok {
		return dst
	}
	_, _, _, winRow, winCnt := v.keyRow(i)
	lo, end := int(winRow), int(winRow)+int(winCnt)
	for hi := end; lo < hi; {
		if mid := int(uint(lo+hi) >> 1); v.winStart(mid) < from {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	// The lower bound holds on ascending rows only, and newView does not
	// check their order: the re-test of from is what keeps a malformed
	// file's answer inside the range.
	for ; lo < end; lo++ {
		w := v.winStart(lo)
		if w > to {
			break
		}
		if w >= from {
			dst = append(dst, nsset.WindowMetrics{})
			v.windowAt(lo, &dst[len(dst)-1])
		}
	}
	return dst
}
