package daystore

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"

	"dnsddos/internal/clock"
	"dnsddos/internal/core"
	"dnsddos/internal/nsset"
)

// set.go fronts sealed days as one core.DayStore: a directory of sealed
// day files (Open), or images held in memory (Add, on a zero Set — a run
// that persists nothing). Open only scans filenames and builds one slot
// per day; every Add happens before the first read, so the slot map never
// changes while it is read, and readers index it without a lock. A day's
// file is opened, CRC-validated and mapped on first access under the
// slot's sync.Once, so concurrent shards racing on a cold day map it
// exactly once and every later reader shares the view. Views stay mapped
// for the Set's lifetime: a mapping is address space, not resident memory
// — the OS pages day files in and out on demand, which is precisely the
// flat-RSS property the store exists for — and never unmapping before
// Close means no reader can hold a pointer into an unmapped file.
//
// Integrity contract: Open, Add and Verify return typed ErrCorrupt errors.
// The core.DayStore reads have no error result (the contract is written
// out in core/daystore.go), so a day file that fails validation at first
// lazy access panics with the *CorruptError instead — inside a supervised
// study run that panic is quarantined like any poisoned
// day-shard. Callers that want an error, not a panic, run Verify first
// (the study resume path additionally hash-verifies each file against its
// checkpoint reference before trusting the directory).

// Set is a read-only day store over sealed column files or images. The
// zero Set is an empty store that Add fills. Safe for concurrent reads.
type Set struct {
	slots map[clock.Day]*daySlot // fixed before the first read
	days  []clock.Day            // ascending

	keysOnce sync.Once
	keys     []nsset.Key
}

// Set implements core.DayStore.
var _ core.DayStore = (*Set)(nil)

// daySlot is one sealed day file and its single open attempt; err is
// sticky so a corrupt file is refused (not re-tried) on every access.
type daySlot struct {
	path string
	once sync.Once
	v    *View
	err  error
}

// Open scans dir for sealed day files (day_NNNNNN.dcol; seal leftovers
// and foreign files are ignored) and returns the lazy store over them. An
// empty or missing directory is a valid empty store.
func Open(dir string) (*Set, error) {
	entries, err := os.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("daystore: scanning %s: %w", dir, err)
	}
	s := &Set{slots: make(map[clock.Day]*daySlot)}
	for _, e := range entries {
		if day, ok := parseFileName(e.Name()); ok {
			s.slots[day] = &daySlot{path: filepath.Join(dir, e.Name())}
			s.days = append(s.days, day)
		}
	}
	sort.Slice(s.days, func(i, j int) bool { return s.days[i] < s.days[j] })
	return s, nil
}

// Add serves image as day's sealed file. It is validated now, as the
// first read of an opened file is, and refused with a typed ErrCorrupt if
// damaged or of another day; a day the Set already holds is refused too.
// The Set keeps image, which the caller must not change. Every Add must
// happen before the first read, and Adds must not run concurrently.
func (s *Set) Add(day clock.Day, image []byte) error {
	if s.slots[day] != nil {
		return fmt.Errorf("daystore: day %d added twice", int32(day))
	}
	sl := &daySlot{path: FileName(day)}
	sl.once.Do(func() { sl.v, sl.err = newView(sl.path, day, image, nil) })
	if sl.err != nil {
		return sl.err
	}
	if s.slots == nil {
		s.slots = make(map[clock.Day]*daySlot)
	}
	s.slots[day] = sl
	i, _ := slices.BinarySearch(s.days, day)
	s.days = slices.Insert(s.days, i, day)
	return nil
}

// Replace serves image as day's sealed file in place of the file or image
// the Set holds for the day, closing its view if it was opened (Verify
// opens every day). The image is validated as Add validates it; a day the
// Set does not hold is refused. Add's rules hold: the Set keeps image,
// and Replace must happen before the first read of the Set (Verify
// aside), never concurrently with another Add or Replace.
func (s *Set) Replace(day clock.Day, image []byte) error {
	old := s.slots[day]
	if old == nil {
		return fmt.Errorf("daystore: day %d replaced but never added", int32(day))
	}
	sl := &daySlot{path: old.path}
	sl.once.Do(func() { sl.v, sl.err = newView(sl.path, day, image, nil) })
	if sl.err != nil {
		return sl.err
	}
	if old.v != nil {
		if err := old.v.Close(); err != nil {
			return err
		}
	}
	s.slots[day] = sl
	return nil
}

// view opens (once) and returns day d's view; (nil, nil) when the day has
// no sealed file.
func (s *Set) view(d clock.Day) (*View, error) {
	sl := s.slots[d]
	if sl == nil {
		return nil, nil
	}
	sl.once.Do(func() { sl.v, sl.err = OpenDay(sl.path, d) })
	return sl.v, sl.err
}

// mustView is view for the error-free DayStore accessors: an unreadable
// or corrupt day file panics with its typed error (see package comment).
func (s *Set) mustView(d clock.Day) *View {
	v, err := s.view(d)
	if err != nil {
		panic(err)
	}
	return v
}

// Verify eagerly opens and validates every sealed day file, returning the
// first integrity failure as a typed error. Valid views stay open for
// subsequent reads.
func (s *Set) Verify() error {
	for _, d := range s.days {
		if _, err := s.view(d); err != nil {
			return err
		}
	}
	return nil
}

// Baseline returns k's aggregate of day d (false when the day has no
// sealed file or k was not measured on it).
func (s *Set) Baseline(k nsset.Key, d clock.Day) (nsset.DayBaseline, bool) {
	v := s.mustView(d)
	if v == nil {
		return nsset.DayBaseline{}, false
	}
	return v.Baseline(k)
}

// AppendWindows appends k's measured windows w with from ≤ w ≤ to to dst,
// ascending, and returns the extended slice. Only the sealed days the span
// touches are opened; a day with no file contributes nothing.
func (s *Set) AppendWindows(dst []nsset.WindowMetrics, k nsset.Key, from, to clock.Window) []nsset.WindowMetrics {
	if from > to {
		return dst
	}
	i, _ := slices.BinarySearch(s.days, from.Day())
	for _, d := range s.days[i:] {
		if d > to.Day() {
			break
		}
		dst = s.mustView(d).AppendWindows(dst, k, from, to)
	}
	return dst
}

// Keys returns the union of every sealed day's NSSets, ascending. It
// opens every view, so it is an audit/reporting accessor, not a join
// hot-path one; the result is memoized.
func (s *Set) Keys() []nsset.Key {
	s.keysOnce.Do(func() {
		seen := make(map[nsset.Key]struct{})
		for _, d := range s.days {
			v := s.mustView(d)
			if v == nil {
				continue
			}
			for i := 0; i < v.NumKeys(); i++ {
				seen[v.Key(i)] = struct{}{}
			}
		}
		s.keys = make([]nsset.Key, 0, len(seen))
		for k := range seen {
			s.keys = append(s.keys, k)
		}
		sort.Slice(s.keys, func(i, j int) bool { return s.keys[i] < s.keys[j] })
	})
	out := make([]nsset.Key, len(s.keys))
	copy(out, s.keys)
	return out
}

// Close unmaps every opened view. The Set is unusable afterwards.
func (s *Set) Close() error {
	var first error
	for _, d := range s.days {
		if v := s.slots[d].v; v != nil {
			if err := v.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
