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
	"dnsddos/internal/packet"
	"dnsddos/internal/report"
	"dnsddos/internal/stream"
	"dnsddos/internal/study"
)

// retention_test.go holds the session's window retention — per-window
// metrics kept only for the NSSets of attacked nameservers, over each
// attack's span plus margins (Session.windowFilter) — to a sweep that
// keeps every window: the same session swept into aggregators with no
// filter and sealed into a daystore.Set must give every reader of the
// windows the bytes the production run gives. A recording DayStore over
// the production days also checks the stronger claim the retention rests
// on: every ranged read the join, its ablations, the Fig. 2/3 series and
// the stream issue lies inside what the session keeps.

// rangedRead is one DayStore.AppendWindows call.
type rangedRead struct {
	k        nsset.Key
	from, to clock.Window
}

// recordingStore is a DayStore that logs every ranged read it serves.
// The join, the series and the stream read on the test's goroutine.
type recordingStore struct {
	core.DayStore
	reads []rangedRead
}

func (r *recordingStore) AppendWindows(dst []nsset.WindowMetrics, k nsset.Key, from, to clock.Window) []nsset.WindowMetrics {
	r.reads = append(r.reads, rangedRead{k, from, to})
	return r.DayStore.AppendWindows(dst, k, from, to)
}

// fullRetention sweeps every day of the session's range but skip into an
// aggregator with no window filter, seals each with daystore.AppendDay and
// returns the sealed days.
func fullRetention(t *testing.T, sess *study.Session, skip clock.Day) *daystore.Set {
	t.Helper()
	set := new(daystore.Set)
	for day := sess.Config.FromDay; day <= sess.Config.ToDay; day++ {
		if day == skip {
			continue
		}
		agg := nsset.NewAggregatorOver(sess.Engine.NSSetTable())
		if err := sess.Engine.RunDayContext(context.Background(), day, agg, nil); err != nil {
			t.Fatal(err)
		}
		image, err := daystore.AppendDay(nil, day, agg)
		if err != nil {
			t.Fatal(err)
		}
		if err := set.Add(day, image); err != nil {
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

// streamCSV replays the study's schedule from half an hour before start
// to three hours after it, its floods sampled at rate, through a stream
// over join, and returns the stream's events CSV.
func streamCSV(t *testing.T, s *study.Study, join *core.Pipeline, start time.Time, rate float64) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stream.csv")
	sink, err := stream.NewFileSink(path)
	if err != nil {
		t.Fatal(err)
	}
	p, err := stream.New(s.Telescope, join, sink, stream.WithRSDoS(s.Config.RSDoS))
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.WriteHeader(); err != nil {
		t.Fatal(err)
	}
	trace := stream.TraceConfig{Seed: 99, Rate: rate, From: clock.WindowOf(start) - 6, To: clock.WindowOf(start) + 36}
	stream.Replay(trace, s.Schedule.Sched, s.Telescope, func(ts time.Time, pkt packet.Packet) bool {
		_, err = p.Offer(ts, pkt)
		return err == nil
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
// day — RunContext's days, which keep windows only where the session
// demands them, read exactly like days that keep every window. The
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
		march              bool      // the stream replays the March TransIP attack, not December's
		rate               float64   // the stream's flood sampling rate
	}{
		// the December TransIP attack, days 29–30
		{name: "december", world: 1, attack: 1, syn: 1, from: 27, to: 33, quarantine: -1, rate: 0.003},
		// the March TransIP attack, day 121
		{name: "march", world: 2, attack: 3, syn: 4, from: 118, to: 124, quarantine: -1, march: true, rate: 0.0003},
		// the December attack's snapshot day quarantined: the join falls
		// back past it
		{name: "december_quarantined", world: 5, attack: 6, syn: 7, from: 27, to: 33, quarantine: 28, rate: 0.003},
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
			prod := &recordingStore{DayStore: s.Pipeline.DayStore()}
			full := fullRetention(t, sess, tc.quarantine)
			pipelines := func(mutate func(*core.Config)) (*core.Pipeline, *core.Pipeline) {
				pc := cfg.Pipeline
				mutate(&pc)
				return sess.NewPipeline(prod, quarantined, obs.New(), core.WithConfig(pc)),
					sess.NewPipeline(full, quarantined, obs.New(), core.WithConfig(pc))
			}

			if len(s.Events) == 0 {
				t.Fatal("the study joined no events; the comparison would be vacuous")
			}
			for _, v := range retentionVariants {
				p, o := pipelines(v.mutate)
				got, want := csvOf(t, p.Events(s.Attacks)), csvOf(t, o.Events(s.Attacks))
				if !bytes.Equal(got, want) {
					t.Errorf("%s: the events differ from the full-retention oracle's", v.name)
				}
				if v.name == "study" && !bytes.Equal(csvOf(t, s.Events), want) {
					t.Errorf("RunContext's events differ from the full-retention oracle's")
				}
			}

			p, o := pipelines(func(*core.Config) {})
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

			start := cs.TransIPDecStart
			if tc.march {
				start = cs.TransIPMarStart
			}
			got, want := streamCSV(t, s, p, start, tc.rate), streamCSV(t, s, o, start, tc.rate)
			if !bytes.Equal(got, want) {
				t.Errorf("the stream CSV differs from the full-retention oracle's")
			}
			if bytes.Count(want, []byte("\n")) < 2 {
				t.Error("the stream joined no event; the comparison would be vacuous")
			}

			demand := sess.Demand()
			tab := sess.Engine.NSSetTable()
			for _, r := range prod.reads {
				id, ok := tab.Lookup(r.k)
				if !ok {
					t.Fatalf("read of %s, an NSSet the engine does not know", r.k)
				}
				for w := r.from; w <= r.to; w++ {
					if !demand(id, w) {
						t.Fatalf("read AppendWindows(%s, %d, %d) reaches window %d, which the session does not keep", r.k, r.from, r.to, w)
					}
				}
			}
			if len(prod.reads) == 0 {
				t.Fatal("no ranged read was recorded")
			}
		})
	}
}
