package daystore

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"dnsddos/internal/clock"
	"dnsddos/internal/core"
	"dnsddos/internal/nsset"
)

// set.go fronts sealed days as one core.DayStore: a directory of sealed
// day files (Open), or images held in memory (Add, on a zero Set — a run
// that persists nothing). Open only reads the directory's names and
// builds one slot per day, each holding its day's View; every Add happens
// before the first read, so the slot list never changes while it is read,
// and readers binary-search it without a lock. A day's path is joined, and
// its file opened, CRC-validated and mapped, on first access under the
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
	dir   string
	slots []*daySlot // ascending by day; fixed before the first read

	keysOnce sync.Once
	keys     []nsset.Key
}

// Set implements core.DayStore.
var _ core.DayStore = (*Set)(nil)

// daySlot is one sealed day file — its name in the Set's directory — and
// its single open attempt into v; err is sticky so a corrupt file is
// refused (not re-tried) on every access.
type daySlot struct {
	day  clock.Day
	name string
	once sync.Once
	v    View
	err  error
}

// Open scans dir for sealed day files (day_NNNNNN.dcol; seal leftovers
// and foreign files are ignored) and returns the lazy store over them. An
// empty or missing directory is a valid empty store. The scan reads the
// names only, and cuts every day's slot from one array.
func Open(dir string) (*Set, error) {
	var names []string
	f, err := os.Open(dir)
	if err == nil {
		names, err = f.Readdirnames(-1)
		f.Close()
	}
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("daystore: scanning %s: %w", dir, err)
	}
	slots := make([]daySlot, 0, len(names))
	for _, name := range names {
		if day, ok := parseFileName(name); ok {
			slots = append(slots, daySlot{day: day, name: name})
		}
	}
	s := &Set{dir: dir, slots: make([]*daySlot, len(slots))}
	for i := range slots {
		s.slots[i] = &slots[i]
	}
	slices.SortFunc(s.slots, func(a, b *daySlot) int { return cmp.Compare(a.day, b.day) })
	return s, nil
}

// find returns the index of day d's slot, or where it would go.
func (s *Set) find(d clock.Day) (int, bool) {
	return slices.BinarySearchFunc(s.slots, d, func(sl *daySlot, d clock.Day) int { return cmp.Compare(sl.day, d) })
}

// Add serves image as day's sealed file. It is validated now, as the
// first read of an opened file is, and refused with a typed ErrCorrupt if
// damaged or of another day; a day the Set already holds is refused too.
// The Set keeps image, which the caller must not change. Every Add must
// happen before the first read, and Adds must not run concurrently.
func (s *Set) Add(day clock.Day, image []byte) error {
	i, found := s.find(day)
	if found {
		return fmt.Errorf("daystore: day %d added twice", int32(day))
	}
	sl, err := imageSlot(day, FileName(day), image)
	if err != nil {
		return err
	}
	s.slots = slices.Insert(s.slots, i, sl)
	return nil
}

// Replace serves image as day's sealed file in place of the file or image
// the Set holds for the day, closing its view if it was opened (Verify
// opens every day). The image is validated as Add validates it; a day the
// Set does not hold is refused. Add's rules hold: the Set keeps image,
// and Replace must happen before the first read of the Set (Verify
// aside), never concurrently with another Add or Replace.
func (s *Set) Replace(day clock.Day, image []byte) error {
	i, found := s.find(day)
	if !found {
		return fmt.Errorf("daystore: day %d replaced but never added", int32(day))
	}
	sl, err := imageSlot(day, s.slots[i].name, image)
	if err != nil {
		return err
	}
	if err := s.slots[i].v.Close(); err != nil {
		return err
	}
	s.slots[i] = sl
	return nil
}

// imageSlot is the slot of a validated in-memory image, already open.
func imageSlot(day clock.Day, name string, image []byte) (*daySlot, error) {
	sl := &daySlot{day: day, name: name}
	sl.once.Do(func() { sl.err = sl.v.init(name, day, image) })
	return sl, sl.err
}

// open opens (once) and returns the slot's view.
func (s *Set) open(sl *daySlot) (*View, error) {
	sl.once.Do(func() { sl.err = sl.v.open(filepath.Join(s.dir, sl.name), sl.day) })
	if sl.err != nil {
		return nil, sl.err
	}
	return &sl.v, nil
}

// mustOpen is open for the error-free DayStore accessors: an unreadable
// or corrupt day file panics with its typed error (see package comment).
func (s *Set) mustOpen(sl *daySlot) *View {
	v, err := s.open(sl)
	if err != nil {
		panic(err)
	}
	return v
}

// Verify eagerly opens and validates every sealed day file, returning the
// first integrity failure as a typed error. Valid views stay open for
// subsequent reads.
func (s *Set) Verify() error {
	for _, sl := range s.slots {
		if _, err := s.open(sl); err != nil {
			return err
		}
	}
	return nil
}

// Baseline returns k's aggregate of day d (false when the day has no
// sealed file or k was not measured on it).
func (s *Set) Baseline(k nsset.Key, d clock.Day) (nsset.DayBaseline, bool) {
	i, found := s.find(d)
	if !found {
		return nsset.DayBaseline{}, false
	}
	return s.mustOpen(s.slots[i]).Baseline(k)
}

// AppendWindows appends k's measured windows w with from ≤ w ≤ to to dst,
// ascending, and returns the extended slice. Only the sealed days the span
// touches are opened; a day with no file contributes nothing.
func (s *Set) AppendWindows(dst []nsset.WindowMetrics, k nsset.Key, from, to clock.Window) []nsset.WindowMetrics {
	if from > to {
		return dst
	}
	i, _ := s.find(from.Day())
	for _, sl := range s.slots[i:] {
		if sl.day > to.Day() {
			break
		}
		dst = s.mustOpen(sl).AppendWindows(dst, k, from, to)
	}
	return dst
}

// Keys returns the union of every sealed day's NSSets, ascending. It
// opens every view, so it is an audit/reporting accessor, not a join
// hot-path one; the result is memoized.
func (s *Set) Keys() []nsset.Key {
	s.keysOnce.Do(func() {
		for _, sl := range s.slots {
			v := s.mustOpen(sl)
			for i := 0; i < v.NumKeys(); i++ {
				s.keys = append(s.keys, v.Key(i))
			}
		}
		slices.Sort(s.keys)
		s.keys = slices.Compact(s.keys)
	})
	return slices.Clone(s.keys)
}

// Close unmaps every opened view. The Set is unusable afterwards.
func (s *Set) Close() error {
	var first error
	for _, sl := range s.slots {
		if err := sl.v.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
