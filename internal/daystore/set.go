package daystore

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"dnsddos/internal/cache"
	"dnsddos/internal/clock"
	"dnsddos/internal/core"
	"dnsddos/internal/nsset"
)

// set.go fronts a directory of sealed day files as one core.DayStore.
// Open only scans filenames; each day's file is opened, CRC-validated and
// mapped lazily on first access through a single-flight cache.LRU (the
// same primitive the join's day cache uses), so concurrent shards racing
// on a cold day map it exactly once and every later reader shares the
// view. Views are cached unbounded for the Set's lifetime: a mapping is
// address space, not resident memory — the OS pages day files in and out
// on demand, which is precisely the flat-RSS property the store exists
// for — and never evicting means no reader can hold a pointer into an
// unmapped file.
//
// Integrity contract: Open and Verify return typed ErrCorrupt errors.
// The core.DayStore methods have no error channel, so a day file that
// fails validation at first lazy access panics with the *CorruptError
// instead — inside a supervised study or distjoin run that panic is
// quarantined like any poisoned day-shard. Callers that want an error,
// not a panic, run Verify first (the study resume path additionally
// hash-verifies each file against its checkpoint reference before
// trusting the directory).

// Set is a read-only day store over a directory of sealed column files.
// Safe for concurrent use.
type Set struct {
	dir   string
	files map[clock.Day]string
	days  []clock.Day
	views *cache.LRU[clock.Day, viewResult]

	keysOnce sync.Once
	keys     []nsset.Key
}

// Set implements core.DayStore.
var _ core.DayStore = (*Set)(nil)

// viewResult is a memoized open attempt; err is sticky so a corrupt file
// is refused (not re-tried) on every access.
type viewResult struct {
	v   *View
	err error
}

// Open scans dir for sealed day files (day_NNNNNN.dcol; seal leftovers
// and foreign files are ignored) and returns the lazy store over them. An
// empty or missing directory is a valid empty store.
func Open(dir string) (*Set, error) {
	entries, err := os.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("daystore: scanning %s: %w", dir, err)
	}
	s := &Set{
		dir:   dir,
		files: make(map[clock.Day]string),
		views: cache.NewLRU[clock.Day, viewResult](0), // unbounded; see package comment
	}
	for _, e := range entries {
		if day, ok := parseFileName(e.Name()); ok {
			s.files[day] = e.Name()
			s.days = append(s.days, day)
		}
	}
	sort.Slice(s.days, func(i, j int) bool { return s.days[i] < s.days[j] })
	return s, nil
}

// view opens (once) and returns day d's view; (nil, nil) when the day has
// no sealed file.
func (s *Set) view(d clock.Day) (*View, error) {
	name, ok := s.files[d]
	if !ok {
		return nil, nil
	}
	r, _ := s.views.GetOrCompute(d, func() viewResult {
		v, err := OpenDay(filepath.Join(s.dir, name), d)
		return viewResult{v: v, err: err}
	})
	return r.v, r.err
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
// first integrity failure as a typed error. Valid views stay cached for
// subsequent reads.
func (s *Set) Verify() error {
	for _, d := range s.days {
		if _, err := s.view(d); err != nil {
			return err
		}
	}
	return nil
}

// viewBaselines adapts one day view (possibly absent) to
// core.BaselineView.
type viewBaselines struct {
	v *View
}

func (b viewBaselines) Baseline(k nsset.Key) *nsset.DayBaseline {
	if b.v == nil {
		return nil
	}
	return b.v.Baseline(k)
}

// Baselines returns day d's baseline view (empty when the day has no
// sealed file).
func (s *Set) Baselines(d clock.Day) core.BaselineView {
	return viewBaselines{v: s.mustView(d)}
}

// DayWindows returns k's measured windows of day d, ascending (nil when
// the day has no sealed file or k was not measured on it).
func (s *Set) DayWindows(k nsset.Key, d clock.Day) []*nsset.WindowMetrics {
	v := s.mustView(d)
	if v == nil {
		return nil
	}
	return v.Windows(k)
}

// Window returns the metrics for (k, w), or nil.
func (s *Set) Window(k nsset.Key, w clock.Window) *nsset.WindowMetrics {
	v := s.mustView(w.Day())
	if v == nil {
		return nil
	}
	return v.Window(k, w)
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
		if r, ok := s.views.Get(d); ok && r.v != nil {
			if err := r.v.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
