package report

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

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
func rendered(t *testing.T, s *study.Study) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	if err := Export(dir, s); err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, a := range Catalogue {
		var buf bytes.Buffer
		if err := a.Report(&buf, s); err != nil {
			t.Fatal(err)
		}
		out[a.ID] = buf.Bytes()
		file, err := os.ReadFile(filepath.Join(dir, a.File))
		if err != nil || len(file) == 0 || !bytes.Contains(out[a.ID], file) {
			t.Errorf("%s: %s is empty or not what the report prints (err %v)", a.ID, a.File, err)
		}
		out[a.File] = file
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
