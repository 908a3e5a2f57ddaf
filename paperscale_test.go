//go:build paperscale

package dnsddos_test

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
	"unsafe"

	"dnsddos/internal/attacksim"
	"dnsddos/internal/obs"
	"dnsddos/internal/study"
)

// paperscale_test.go runs the study at the paper's attack count (Table 1:
// 4,039,485 RSDoS attacks) on QuickConfig's world at two sizes, 15,000
// and 1,000,000 domains, its days sealed to a temporary day store, and
// prints where the time and the memory went: the wall time, every
// study.stage.*_wall_ns gauge, the process's peak resident set (VmHWM),
// and the attacks and events. It asserts only that the run joins
// something; the numbers are read in pairs, a change against its parent
// on one host, and the million-domain row against the single-host bound
// DESIGN §3.6 states. VmHWM is the process's, so make paperscale runs
// each row in a process of its own. The build tag keeps it out of go
// test ./...: the small row takes a minute or more and gigabytes, the
// large one several minutes.
//
//	make paperscale

// paperAttacks is Table 1's RSDoS attack count.
const paperAttacks = 4_039_485

func TestPaperScale(t *testing.T) {
	for _, domains := range []int{15_000, 1_000_000} {
		t.Run(fmt.Sprintf("%d_domains", domains), func(t *testing.T) { paperScale(t, domains) })
	}
}

func paperScale(t *testing.T, domains int) {
	cfg := study.QuickConfig()
	cfg.World.Domains = domains
	cfg.Attacks.TotalAttacks = paperAttacks
	reg := obs.New()
	start := time.Now()
	s, err := study.RunContext(context.Background(), cfg, study.WithDayStoreDir(t.TempDir()), study.WithMetrics(reg))
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := s.Pipeline.DayStore().(io.Closer); ok {
		defer c.Close()
	}
	if len(s.Attacks) == 0 || len(s.Events) == 0 {
		t.Fatalf("%d attacks, %d events: want some of each", len(s.Attacks), len(s.Events))
	}

	t.Logf("domains %d, attacks scheduled %d", cfg.World.Domains, cfg.Attacks.TotalAttacks)
	t.Logf("wall_s %.2f", wall.Seconds())
	gauges := reg.Snapshot().Gauges
	var stages []string
	for name := range gauges {
		if strings.HasPrefix(name, "study.stage.") && strings.HasSuffix(name, "_wall_ns") {
			stages = append(stages, name)
		}
	}
	sort.Strings(stages)
	for _, name := range stages {
		t.Logf("%s %d (%.2f s)", name, gauges[name], float64(gauges[name])/1e9)
	}
	t.Logf("VmHWM %s", procStatus(t, "VmHWM"))
	n := s.Schedule.Sched.Len()
	t.Logf("components %d, schedule array %d bytes", n, uintptr(n)*unsafe.Sizeof(attacksim.Spec{}))
	t.Logf("attacks %d", len(s.Attacks))
	t.Logf("events %d", len(s.Events))
}

// procStatus returns the value of one field of /proc/self/status.
func procStatus(t *testing.T, field string) string {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			return strings.TrimSpace(v)
		}
	}
	t.Fatalf("no %s in /proc/self/status", field)
	return ""
}
