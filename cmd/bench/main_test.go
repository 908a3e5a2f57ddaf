// main_test.go pins the command's contract: the summary table on
// stdout with one row per selected mode, exit 2 on a bad flag or an
// unknown mode.
package main

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"dnsddos/internal/e2ebench"
)

func bench(args ...string) (code int, stdout, stderr string) {
	var out, errOut bytes.Buffer
	code = run(context.Background(), args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestBadFlagExitsUsage(t *testing.T) {
	if code, _, _ := bench("-no-such-flag"); code != 2 {
		t.Fatalf("bad flag exited %d, want 2", code)
	}
}

func TestOneModePrintsOneRow(t *testing.T) {
	code, out, errOut := bench("-modes", "baseline")
	if code != 0 {
		t.Fatalf("exited %d\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
	// the table is the last block of output: its header, then the rows
	lines := strings.Split(strings.TrimSpace(out), "\n")
	header := -1
	for i, line := range lines {
		if strings.HasPrefix(line, "mode ") && strings.Contains(line, "fail%") {
			header = i
		}
	}
	if header < 0 {
		t.Fatalf("no table header:\n%s", out)
	}
	rows := lines[header+1:]
	if len(rows) != 1 || !strings.HasPrefix(rows[0], "baseline ") {
		t.Errorf("want exactly one baseline row under the header, got %q", rows)
	}
}

func TestUnknownModeNamesRegisteredModes(t *testing.T) {
	code, _, errOut := bench("-modes", "no-such-mode")
	if code != 2 {
		t.Fatalf("unknown mode exited %d, want 2", code)
	}
	for _, name := range e2ebench.ModeNames() {
		if !strings.Contains(errOut, name) {
			t.Errorf("registered mode %s not named in:\n%s", name, errOut)
		}
	}
}
