package daystore

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"dnsddos/internal/atomicfile"
	"dnsddos/internal/clock"
	"dnsddos/internal/core"
	"dnsddos/internal/nsset"
)

// set.go is the one home of a run's sealed days, as one core.DayStore:
// Put seals a day into it — published in the Set's directory, or kept in
// memory by a Set without one (a run that persists nothing) — and Open
// fronts a directory of days sealed earlier. Open only reads the
// directory's names and builds one slot per day; every Put happens before
// the first read, so the slot list never changes while it is read, and
// readers binary-search it without a lock. A published day's file is
// opened, CRC-validated and mapped on first access under the slot's
// sync.Once, so concurrent shards racing on a cold day map it exactly once
// and every later reader shares the view. Views stay mapped for the Set's
// lifetime: a mapping is address space, not resident memory — the OS pages
// day files in and out on demand, which is precisely the flat-RSS property
// the store exists for — and never unmapping before Close means no reader
// can hold a pointer into an unmapped file.
//
// Integrity contract: Open, Put and Verify return typed ErrCorrupt errors.
// The core.DayStore reads have no error result (the contract is written
// out in core/daystore.go), so a day file that fails validation at first
// lazy access panics with the *CorruptError instead — inside a supervised
// study run that panic is quarantined like any poisoned
// day-shard. Callers that want an error, not a panic, run Verify first
// (the study resume path additionally hash-verifies each file against its
// checkpoint reference before trusting the directory).

// Set is a day store over sealed column files or images. The zero Set is
// an empty store that keeps what Put gives it in memory. Safe for
// concurrent reads, and for concurrent Puts before the first read.
type Set struct {
	dir string

	mu    sync.Mutex      // guards pub and the slot list during Puts
	pub   *atomicfile.Dir // dir, opened by the first Put
	slots []*daySlot      // ascending by day; fixed before the first read

	keysOnce sync.Once
	keys     []nsset.Key
}

// Set implements core.DayStore.
var _ core.DayStore = (*Set)(nil)

// daySlot is one sealed day — its file's name in the Set's directory —
// and its single open attempt into v; err is sticky so a corrupt file is
// refused (not re-tried) on every access.
type daySlot struct {
	day  clock.Day
	name string
	once sync.Once
	v    view
	err  error
}

// Open scans dir for sealed day files (day_NNNNNN.dcol; seal leftovers
// and foreign files are ignored) and returns the lazy store over them,
// which publishes what Put gives it in dir. An empty or missing directory
// is a valid empty store, and Open("") the zero Set. The scan reads the
// names only, and cuts every day's slot from one array.
func Open(dir string) (*Set, error) {
	if dir == "" {
		return new(Set), nil
	}
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

// Put serves image as day's sealed file in place of any the Set holds for
// the day. The image is checked as the first read of a file is, and a
// damaged one, or one of another day, is refused with a typed ErrCorrupt
// and nothing written. A Set with a directory publishes the image there
// atomically, returns the file with its ContentHash and serves it from
// the file, so the caller may reuse image; a Set without one keeps image,
// which the caller must not change, and returns the file unhashed. Every
// Put must happen before the first read of the Set (Verify aside).
func (s *Set) Put(day clock.Day, image []byte) (SealedFile, error) {
	sl := &daySlot{day: day, name: FileName(day)}
	if err := sl.v.init(sl.name, day, image); err != nil {
		return SealedFile{}, err
	}
	file := SealedFile{Day: day, Name: sl.name}
	if s.dir == "" {
		sl.once.Do(func() {}) // served from the image, as validated
	} else {
		sl.v = view{} // served from the file, opened on first access
		pub, err := s.publisher()
		if err == nil {
			err = pub.Write(sl.name, image)
		}
		if err != nil {
			return SealedFile{}, fmt.Errorf("daystore: %w", err)
		}
		file.SHA256 = ContentHash(image)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	i, found := s.find(day)
	if !found {
		s.slots = slices.Insert(s.slots, i, sl)
		return file, nil
	}
	err := s.slots[i].v.Close()
	s.slots[i] = sl
	return file, err
}

// Seal is AppendDay followed by Put: it seals day from the aggregator's
// day table, under AppendDay's input rule. With a directory the image is
// built in buf[:0] and returned, grown if it had to be, so a worker
// sealing day after day reuses one buffer; without one the Set keeps the
// image, so each is built afresh whatever buf is.
func (s *Set) Seal(day clock.Day, agg *nsset.Aggregator, buf []byte) (SealedFile, []byte, error) {
	if s.dir == "" {
		buf = nil
	}
	image, err := AppendDay(buf[:0], day, agg)
	if err != nil {
		return SealedFile{}, buf, err
	}
	file, err := s.Put(day, image)
	return file, image, err
}

// publisher returns the Set's directory, held open from the first Put.
func (s *Set) publisher() (*atomicfile.Dir, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pub != nil {
		return s.pub, nil
	}
	var err error
	s.pub, err = atomicfile.OpenDir(s.dir)
	return s.pub, err
}

// open opens (once) and returns the slot's view.
func (s *Set) open(sl *daySlot) (*view, error) {
	sl.once.Do(func() { sl.err = sl.v.open(filepath.Join(s.dir, sl.name), sl.day) })
	if sl.err != nil {
		return nil, sl.err
	}
	return &sl.v, nil
}

// mustOpen is open for the error-free DayStore accessors: an unreadable
// or corrupt day file panics with its typed error (see package comment).
func (s *Set) mustOpen(sl *daySlot) *view {
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

// Close unmaps every opened view and releases the directory Put opened.
// The Set is unusable afterwards.
func (s *Set) Close() error {
	var first error
	if s.pub != nil {
		first = s.pub.Close()
	}
	for _, sl := range s.slots {
		if err := sl.v.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
