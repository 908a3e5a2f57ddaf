package report

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"dnsddos/internal/clock"
	"dnsddos/internal/daystore"
	"dnsddos/internal/study"
)

// designIDs parses the catalogue IDs out of DESIGN §4's index: the
// backticked last cell of every table row between the §4 and §5 headings.
func designIDs(t *testing.T) []string {
	t.Helper()
	b, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, ok := strings.Cut(string(b), "\n## 4. ")
	if !ok {
		t.Fatal("DESIGN.md has no §4")
	}
	sec, _, _ = strings.Cut(sec, "\n## 5. ")
	var ids []string
	for _, m := range regexp.MustCompile("(?m)^\\|.*\\| `([a-z0-9_]+)` \\|$").FindAllStringSubmatch(sec, -1) {
		ids = append(ids, m[1])
	}
	return ids
}

// rendered is every artefact's report form and, through Export, its file.
// Export prints what Report does, each entry followed by a blank line.
func rendered(t *testing.T, s *study.Study) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	var printed, want bytes.Buffer
	if err := Export(&printed, dir, s); err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, a := range Catalogue {
		var buf bytes.Buffer
		if err := a.Report(&buf, s); err != nil {
			t.Fatal(err)
		}
		want.Write(buf.Bytes())
		want.WriteString("\n")
		out[a.ID] = buf.Bytes()
		file, err := os.ReadFile(filepath.Join(dir, a.File))
		if err != nil || len(file) == 0 || !bytes.Contains(out[a.ID], file) {
			t.Errorf("%s: %s is empty or not what the report prints (err %v)", a.ID, a.File, err)
		}
		out[a.File] = file
	}
	if !bytes.Equal(printed.Bytes(), want.Bytes()) {
		t.Error("Export prints other bytes than the entries' reports")
	}
	return out
}

func TestCatalogue(t *testing.T) {
	run := func() *study.Study {
		s, err := study.RunContext(context.Background(), study.QuickConfig())
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := run()

	var ids []string
	for _, a := range Catalogue {
		ids = append(ids, a.ID)
	}
	t.Run("unique", func(t *testing.T) {
		for i, a := range Catalogue {
			if a.ID == "" || a.Title == "" || a.File == "" || slices.Contains(ids[:i], a.ID) {
				t.Errorf("entry %q (%q, %q): incomplete, or its ID is listed twice", a.ID, a.Title, a.File)
			}
		}
	})
	// DESIGN §4 has exactly one row per entry, in the catalogue's order, so
	// neither list can gain or lose an artefact alone
	t.Run("design_index", func(t *testing.T) {
		if want := designIDs(t); !slices.Equal(ids, want) {
			t.Errorf("catalogue IDs\n  %v\nDESIGN §4 index\n  %v", ids, want)
		}
	})
	// every entry renders, without error and not empty, the same bytes from
	// one study twice and from a second run of the same seeded config
	t.Run("renders", func(t *testing.T) {
		first := rendered(t, s)
		if len(first) != 2*len(Catalogue) {
			t.Errorf("%d distinct IDs and files for %d entries", len(first), len(Catalogue))
		}
		for name, again := range map[string]map[string][]byte{"a second render": rendered(t, s), "a second run": rendered(t, run())} {
			for k, b := range first {
				if !bytes.Equal(b, again[k]) {
					t.Errorf("%s: %s differs", k, name)
				}
			}
		}
	})
}

// TestSeriesRefusesTamperedDay is the SeriesFor / cmd/report leg of the
// day-store refusal contract (core/daystore.go): a day file damaged before
// its first access makes the Figure 2 entry — Pipeline.SeriesFor over the
// sealed days — panic with the store's typed error on the goroutine that
// asked, which is all cmd/report sees: it dies printing that error with
// nothing of the entry rendered but its title.
func TestSeriesRefusesTamperedDay(t *testing.T) {
	cfg := study.QuickConfig()
	cfg.World.Domains = 1500
	cfg.FromDay, cfg.ToDay = 27, 31 // the TransIP December attack
	dir := t.TempDir()
	// no join: the series is the first reader of every day file
	s, err := study.RunContext(context.Background(), cfg, study.WithDayStoreDir(dir), study.WithSkipJoin())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, daystore.FileName(clock.DayOf(s.Schedule.CaseStudies.TransIPDecStart)))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x01
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	fig := Catalogue[slices.IndexFunc(Catalogue, func(a Artefact) bool { return a.ID == "figure2_dec" })]
	var out bytes.Buffer
	defer func() {
		if err, _ := recover().(error); !errors.Is(err, daystore.ErrCorrupt) {
			t.Fatalf("recovered %v, want daystore.ErrCorrupt", err)
		}
		if strings.Count(out.String(), "\n") > 1 {
			t.Errorf("more than the title was rendered before the refusal:\n%s", out.String())
		}
	}()
	fig.Report(&out, s)
	t.Fatal("Figure 2 rendered over a tampered day file")
}
