package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"

	"dnsddos/internal/stats"
)

// suite.go runs single-workload runs as child processes — so each gets its
// own peak RSS and heap — and reads their result lines: once each for the
// default table, or selfcheckRuns seeds twice over for the self-check.

// childArgs is what every child run inherits from the parent's flags.
type childArgs struct {
	smoke   bool
	seconds float64
	outDir  string
}

// runChild re-executes this binary for one workload and parses the last
// line it prints. A child that failed an output check still yields its
// result (Correct false); any other failure is an error.
func runChild(c childArgs, workload string, seed uint64, traced bool) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	args := []string{
		"-workload", workload,
		"-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64),
		"-trace", trace,
		"-out", c.outDir,
	}
	if c.smoke {
		args = append(args, "-smoke")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		if runErr != nil {
			return result{}, fmt.Errorf("%s (seed %d, trace %s): %w", workload, seed, trace, runErr)
		}
		return result{}, fmt.Errorf("%s (seed %d, trace %s): no result line: %w", workload, seed, trace, err)
	}
	return res, nil
}

// runAll runs every workload untraced, then traced, and prints every
// metric by name.
func runAll(w io.Writer, c childArgs, seed uint64) error {
	incorrect := 0
	for _, wl := range workloads {
		fmt.Fprintf(w, "\n== %s: %s\n", wl.Name, wl.Why)
		for _, pass := range []struct {
			traced bool
			defs   []metricDef
		}{{false, endToEnd}, {true, perLayer}} {
			res, err := runChild(c, wl.Name, seed, pass.traced)
			if err != nil {
				return err
			}
			for _, d := range pass.defs {
				fmt.Fprintf(w, "%-14s %-32s %16.6g %s\n", wl.Name, d.Name, res.Metrics[d.Name].Value, d.Unit)
			}
			fmt.Fprintf(w, "%-14s %-32s %16d count\n", wl.Name, "ops_attempted", res.Attempted)
			fmt.Fprintf(w, "%-14s %-32s %16d count\n", wl.Name, "ops_failed", res.Failed)
			if !res.Correct {
				incorrect++
			}
		}
	}
	if incorrect > 0 {
		return fmt.Errorf("%d runs failed an output check", incorrect)
	}
	return nil
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (its default, exclusive method) —
// the rule the benchmark's acceptance is stated in.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s)
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// worsening is how much worse b is than a, as a share of a.
func worsening(d metricDef, a, b float64) float64 {
	if d.Better == "higher" {
		return stats.Ratio(a-b, a)
	}
	return stats.Ratio(b-a, a)
}

// selfcheckRuns is how many seeds a round of the self-check takes per
// workload: the number the benchmark's acceptance rule is stated over.
const selfcheckRuns = 10

// countDrift is how far the two rounds may disagree on a metric that counts
// (allocations). The rounds run the same seeds, so counts repeat but for
// what the scheduler reorders; their bound is wider only because it must
// hold the spread over different seeds, which is a property of the inputs.
const countDrift = 0.02

// runSelfcheck runs every workload untraced on selfcheckRuns seeds from
// seed on, twice, and holds each end-to-end metric to its bound: the
// quartile spread of a round as a share of its median (set-up time
// excepted), and the second round's median against the first's (counts
// against countDrift).
func runSelfcheck(w io.Writer, c childArgs, seed uint64) error {
	violations := 0
	for _, wl := range workloads {
		var rounds [2]map[string][]float64
		for r := range rounds {
			rounds[r] = make(map[string][]float64)
			for i := 0; i < selfcheckRuns; i++ {
				res, err := runChild(c, wl.Name, seed+uint64(i), false)
				if err != nil {
					return err
				}
				if !res.Correct {
					return fmt.Errorf("%s seed %d failed an output check", wl.Name, seed+uint64(i))
				}
				for _, d := range endToEnd {
					rounds[r][d.Name] = append(rounds[r][d.Name], res.Metrics[d.Name].Value)
				}
			}
		}
		fmt.Fprintf(w, "\n%-14s %-12s %12s %8s %12s %8s %8s %6s\n", wl.Name, "metric", "median1", "spread1", "median2", "spread2", "worse", "bound")
		for _, d := range endToEnd {
			var med, spread [2]float64
			for r := range rounds {
				q := quartiles(rounds[r][d.Name])
				med[r], spread[r] = q[1], stats.Ratio(q[2]-q[0], q[1])
			}
			worse := worsening(d, med[0], med[1])
			drift := d.Bound
			if d.Name == "op_alloc_kb" || d.Name == "op_allocs" {
				drift = countDrift
			}
			verdict := "ok"
			switch {
			case worse > drift, d.Name != "setup_s" && max(spread[0], spread[1]) > d.Bound:
				verdict = "OUT OF BOUND"
				violations++
			case d.Name != "setup_s" && max(spread[0], spread[1]) > d.Bound/3:
				verdict = "ok (spread above a third of the bound)"
			}
			fmt.Fprintf(w, "%-14s %-12s %12.6g %8.4f %12.6g %8.4f %+8.4f %6.2f  %s\n",
				wl.Name, d.Name, med[0], spread[0], med[1], spread[1], worse, d.Bound, verdict)
		}
	}
	if violations > 0 {
		return fmt.Errorf("%d metrics out of bound", violations)
	}
	return nil
}
