package study_test

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"dnsddos/internal/clock"
	"dnsddos/internal/core"
	"dnsddos/internal/daystore"
	"dnsddos/internal/nsset"
	"dnsddos/internal/obs"
	"dnsddos/internal/report"
	"dnsddos/internal/rsdos"
	"dnsddos/internal/stream"
	"dnsddos/internal/study"
)

// retention_test.go holds the session's demand — per-window metrics kept
// only for the NSSets of attacked nameservers, over each attack's span
// plus margins, and only the (NSSet, day) rows the join can read measured
// at all (Session.buildDemand) — to a sweep of every domain that keeps
// every window: the same session's engine unrestricted, swept into
// aggregators with no filter and sealed into a daystore.Set, must give
// every reader the bytes the production run gives. A recording DayStore
// over the production days also checks the stronger claim the demand
// rests on: every read the join, its ablations, the Fig. 2/3 series and
// the stream issue lies inside what the session measures and keeps.

// rangedRead is one DayStore.AppendWindows call.
type rangedRead struct {
	k        nsset.Key
	from, to clock.Window
}

// dayRead is one DayStore.Baseline call.
type dayRead struct {
	k nsset.Key
	d clock.Day
}

// recordingStore is a DayStore that logs every read it serves. The join,
// the series and the stream read on the test's goroutine.
type recordingStore struct {
	core.DayStore
	reads     []rangedRead
	baselines []dayRead
}

func (r *recordingStore) AppendWindows(dst []nsset.WindowMetrics, k nsset.Key, from, to clock.Window) []nsset.WindowMetrics {
	r.reads = append(r.reads, rangedRead{k, from, to})
	return r.DayStore.AppendWindows(dst, k, from, to)
}

func (r *recordingStore) Baseline(k nsset.Key, d clock.Day) (nsset.DayBaseline, bool) {
	r.baselines = append(r.baselines, dayRead{k, d})
	return r.DayStore.Baseline(k, d)
}

// checkReads fails the test, naming the reader, if a read rec recorded
// lies outside the session's demand — a ranged read reaching a window the
// session does not keep, or a day read of a row it does not measure — and
// reports the first such day read and how many there are. The demand
// spans the run's days only, so a read's part outside them is judged by
// the same rule unclipped (StudyDemand).
// A quarantined day's rows are read on the day core.MeasurableDay falls
// back to, which the run's second pass measures for them too.
func checkReads(t *testing.T, reader string, sess *study.Session, quarantined []clock.Day, rec *recordingStore) {
	t.Helper()
	from, to := sess.Config.FromDay, sess.Config.ToDay
	runKeeps, runSweeps := sess.Demand(), sess.DayDemand()
	studyKeeps, studySweeps := sess.StudyDemand()
	keeps := func(id nsset.ID, w clock.Window) bool {
		if w.Day() < from || w.Day() > to {
			return studyKeeps(id, w)
		}
		return runKeeps(id, w)
	}
	sweeps := func(id nsset.ID, d clock.Day) bool {
		if d < from || d > to {
			return studySweeps(id, d)
		}
		return runSweeps(id, d)
	}
	q := make(map[clock.Day]bool)
	for _, d := range quarantined {
		q[d] = true
	}
	tab := sess.Engine.NSSetTable()
	id := func(k nsset.Key) nsset.ID {
		id, ok := tab.Lookup(k)
		if !ok {
			t.Fatalf("%s: read of %s, an NSSet the engine does not know", reader, k)
		}
		return id
	}
	for _, r := range rec.reads {
		for w := r.from; w <= r.to; w++ {
			if !keeps(id(r.k), w) {
				t.Fatalf("%s: read AppendWindows(%s, %d, %d) reaches window %d, which the session does not keep", reader, r.k, r.from, r.to, w)
			}
		}
	}
	var missed []dayRead
	for _, r := range rec.baselines {
		ok := sweeps(id(r.k), r.d)
		for _, qd := range quarantined {
			ok = ok || core.MeasurableDay(qd, q) == r.d && sweeps(id(r.k), qd)
		}
		if !ok {
			missed = append(missed, r)
		}
	}
	if len(missed) > 0 {
		t.Errorf("%s: read Baseline(%s, day %d), a row the session does not measure, and %d more such reads",
			reader, missed[0].k, missed[0].d, len(missed)-1)
	}
}

// fullRetention sweeps every domain on every day of the session's range
// but skip — the session's engine unrestricted — into an aggregator with
// no window filter, seals each with daystore.AppendDay and returns the
// sealed days.
func fullRetention(t *testing.T, sess *study.Session, skip clock.Day) *daystore.Set {
	t.Helper()
	set := new(daystore.Set)
	every := sess.Engine.Restrict(nil)
	for day := sess.Config.FromDay; day <= sess.Config.ToDay; day++ {
		if day == skip {
			continue
		}
		agg := nsset.NewAggregatorOver(every.NSSetTable())
		if err := every.RunDayContext(context.Background(), day, agg, nil); err != nil {
			t.Fatal(err)
		}
		image, err := daystore.AppendDay(nil, day, agg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := set.Put(day, image); err != nil {
			t.Fatal(err)
		}
	}
	return set
}

func csvOf(t *testing.T, events []core.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := report.EventsCSV(&buf, events); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// streamCSV streams the session's feed, in order, through a stream over
// join, and returns the stream's events CSV.
func streamCSV(t *testing.T, sess *study.Session, join *core.Pipeline) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stream.csv")
	sink, err := stream.NewFileSink(path)
	if err != nil {
		t.Fatal(err)
	}
	p, err := stream.New(join, sink, stream.WithRSDoS(sess.Config.RSDoS))
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.WriteHeader(); err != nil {
		t.Fatal(err)
	}
	sess.Feed(func(o *rsdos.WindowObs) { p.Offer(o) }, func(w clock.Window) {
		if err == nil {
			err = p.Advance(w)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// The study's join configuration and internal/report's joinAblation
// variants of it.
var retentionVariants = []struct {
	name   string
	mutate func(*core.Config)
}{
	{"study", func(*core.Config) {}},
	{"same_day_snapshot", func(c *core.Config) { c.UsePrevDaySnapshot = false }},
	{"week_before_baseline", func(c *core.Config) { c.BaselineDaysBack = 7 }},
	{"min_domains_1", func(c *core.Config) { c.MinMeasuredDomains = 1 }},
	{"min_domains_20", func(c *core.Config) { c.MinMeasuredDomains = 20 }},
	{"open_resolver_filter_off", func(c *core.Config) { c.FilterOpenResolvers = false }},
}

// TestRetentionMatchesFullOracle: on seeded small configurations — other
// worlds, attack schedules and telescope feeds, one with a quarantined
// day — RunContext's days, which measure only the rows and keep only the
// windows the session demands, read exactly like days that measure every
// domain and keep every window, and every read lies inside the demand. The
// generated worlds put each nameserver address in one NSSet only, so
// demanding a victim's first containing NSSet alone would pass here;
// TestDemandMatchesMap, over tables that share addresses, is what catches
// that.
func TestRetentionMatchesFullOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	for _, tc := range []struct {
		name               string
		world, attack, syn uint64
		from, to           clock.Day
		quarantine         clock.Day // -1: none
	}{
		// the December TransIP attack, days 29–30
		{name: "december", world: 1, attack: 1, syn: 1, from: 27, to: 33, quarantine: -1},
		// the March TransIP attack, day 121
		{name: "march", world: 2, attack: 3, syn: 4, from: 118, to: 124, quarantine: -1},
		// the December attack's snapshot day quarantined: the join falls
		// back past it
		{name: "december_quarantined", world: 5, attack: 6, syn: 7, from: 27, to: 33, quarantine: 28},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := study.QuickConfig()
			cfg.World.Domains = 2500
			cfg.World.Seed, cfg.Attacks.Seed, cfg.Synth.Seed = tc.world, tc.attack, tc.syn
			cfg.FromDay, cfg.ToDay = tc.from, tc.to
			s, err := study.RunContext(context.Background(), cfg, study.WithBeforeDay(func(d clock.Day) {
				if d == tc.quarantine {
					panic("injected sweep fault")
				}
			}))
			if err != nil {
				t.Fatal(err)
			}
			var quarantined, wantQuarantined []clock.Day
			for _, d := range s.Report.SkippedDays {
				quarantined = append(quarantined, d.Day)
			}
			if tc.quarantine >= 0 {
				wantQuarantined = []clock.Day{tc.quarantine}
			}
			if !slices.Equal(quarantined, wantQuarantined) {
				t.Fatalf("quarantined %v, want %v", quarantined, wantQuarantined)
			}
			sess := s.Session()
			full := fullRetention(t, sess, tc.quarantine)
			pipelines := func(mutate func(*core.Config)) (*recordingStore, *core.Pipeline, *core.Pipeline) {
				pc := cfg.Pipeline
				mutate(&pc)
				prod := &recordingStore{DayStore: s.Pipeline.DayStore()}
				return prod, sess.NewPipeline(prod, quarantined, obs.New(), core.WithConfig(pc)),
					sess.NewPipeline(full, quarantined, obs.New(), core.WithConfig(pc))
			}

			if len(s.Events) == 0 {
				t.Fatal("the study joined no events; the comparison would be vacuous")
			}
			for _, v := range retentionVariants {
				prod, p, o := pipelines(v.mutate)
				got, want := csvOf(t, p.Events(s.Attacks)), csvOf(t, o.Events(s.Attacks))
				checkReads(t, v.name, sess, quarantined, prod)
				if !bytes.Equal(got, want) {
					t.Errorf("%s: the events differ from the full-retention oracle's", v.name)
				}
				if v.name == "study" && !bytes.Equal(csvOf(t, s.Events), want) {
					t.Errorf("RunContext's events differ from the full-retention oracle's")
				}
				if len(prod.baselines) == 0 || len(prod.reads) == 0 {
					t.Errorf("%s: the join read %d day rows and %d window ranges; the check would be vacuous", v.name, len(prod.baselines), len(prod.reads))
				}
			}

			prod, p, o := pipelines(func(*core.Config) {})
			cs := s.Schedule.CaseStudies
			k := nsset.KeyOf(cs.TransIPNS[:])
			series := 0
			for _, span := range [][2]time.Time{
				{cs.TransIPDecStart.Add(-2 * time.Hour), cs.TransIPDecEnd.Add(10 * time.Hour)}, // Fig. 2
				{cs.TransIPMarStart.Add(-2 * time.Hour), cs.TransIPMarEnd.Add(10 * time.Hour)}, // Fig. 2
				{cs.TransIPMarStart.Add(-2 * time.Hour), cs.TransIPMarEnd.Add(6 * time.Hour)},  // Fig. 3
			} {
				got, want := p.SeriesFor(k, span[0], span[1]), o.SeriesFor(k, span[0], span[1])
				if !reflect.DeepEqual(got, want) {
					t.Errorf("the series over %v differs from the full-retention oracle's: %d vs %d samples", span, len(got), len(want))
				}
				series += len(want)
			}
			if series == 0 {
				t.Error("no Fig. 2/3 series sample; the comparison would be vacuous")
			}

			got, want := streamCSV(t, sess, p), streamCSV(t, sess, o)
			if !bytes.Equal(got, want) {
				t.Errorf("the stream CSV differs from the full-retention oracle's")
			}
			if bytes.Count(want, []byte("\n")) < 2 {
				t.Error("the stream joined no event; the comparison would be vacuous")
			}
			checkReads(t, "series and stream", sess, quarantined, prod)
		})
	}
}
