// Command benchmark is the repository's one performance ledger: four
// fixed, seeded workloads, four end-to-end metrics measured with tracing
// off, and a traced pass that times the operation and attributes the time
// to layers (packages).
// See README.md in this directory; BENCHMARK.json at the repo root is the
// machine-readable contract.
//
//	go run ./benchmark                      # every workload, untraced then traced
//	go run ./benchmark -workload join_dense -seed 7 -seconds 15 -trace 1
//	go run ./benchmark -selfcheck           # ten seeds per workload, twice: spread vs bound
//
// A single-workload run prints its metrics by name with units and, as the
// last line of standard output, one JSON object {correct, attempted,
// failed, metrics}. The exit status is non-zero when an output check
// failed.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dnsddos/internal/stats"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// env is one single-workload run: its arguments in, its metrics out.
type env struct {
	workload string
	seed     uint64
	budget   time.Duration // how long the timed part measures
	traced   bool
	sc       scale
	outDir   string // trace files and scratch directories go here
	log      io.Writer

	tr        *tracer // nil on the untraced pass
	values    map[string]float64
	attempted int64
	failed    int64
}

func (e *env) set(name string, v float64) { e.values[name] = v }

func (e *env) logf(format string, args ...any) { fmt.Fprintf(e.log, format+"\n", args...) }

// workDir makes a fresh scratch directory under outDir.
func (e *env) workDir(pattern string) (string, error) {
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(e.outDir, pattern)
}

// setOpMetrics reports what one operation costs, from untraced repeats
// that each hold one operation's cost: median allocation figures (those
// repeat almost exactly) for the end-to-end pass, steady timings for the
// per-layer pass.
func (e *env) setOpMetrics(repeats []opCost) {
	e.set("op_alloc_kb", stats.Median(pick(repeats, func(c opCost) float64 { return c.allocKB })))
	e.set("op_allocs", stats.Median(pick(repeats, func(c opCost) float64 { return c.allocs })))
	e.set("op.wall_ms", steadyOf(repeats, wallOf))
	e.set("op.cpu_ms", steadyOf(repeats, cpuOf))
	e.logf("%s: %d repeats, steady wall %.6g ms, cpu %.6g ms per operation", e.workload, len(repeats), e.values["op.wall_ms"], e.values["op.cpu_ms"])
}

// setSetup reports the set-up time from the set-ups a run made. The steal
// counter moves in ticks of 10 ms, so it says nothing about a set-up shorter
// than a few ticks (serve_clean's takes 7 ms, and subtracting whole ticks
// from it read 2 to 6 ms): those are reported with no steal removed.
func (e *env) setSetup(setups []usage) {
	walls, steals := make([]float64, len(setups)), make([]float64, len(setups))
	for i, u := range setups {
		walls[i], steals[i] = u.wall.Seconds(), u.steal.Seconds()
		e.logf("%s: set-up %d wall %.1fms cpu %.1fms steal %.0fms", e.workload, i, walls[i]*1e3, u.cpu.Seconds()*1e3, steals[i]*1e3)
	}
	if stats.Median(walls) < 10*stealTick.Seconds() {
		clear(steals)
	}
	e.set("setup_s", steady(walls, steals))
}

// fail counts one failed operation and says why.
func (e *env) fail(format string, args ...any) {
	e.failed++
	e.logf("FAIL "+format, args...)
}

// cpuLimit is the core count every workload is sized for: two sweep or
// join workers, or two load senders against two servers.
const cpuLimit = 2

// runWorkload executes one workload once and returns its result line.
func runWorkload(e *env) (result, error) {
	var def *workloadDef
	for i := range workloads {
		if workloads[i].Name == e.workload {
			def = &workloads[i]
		}
	}
	if def == nil {
		return result{}, fmt.Errorf("unknown workload %q", e.workload)
	}
	e.values = make(map[string]float64)
	if e.traced {
		e.tr = newTracer()
	}
	start, steal := time.Now(), stealTime()
	if err := def.run(e); err != nil {
		return result{}, err
	}
	defs := endToEnd
	if e.traced {
		defs = perLayer
		// How disturbed the run was: layer times are wall times.
		e.set("machine.steal_share", stats.Ratio((stealTime()-steal).Seconds(), time.Since(start).Seconds()*float64(runtime.NumCPU())))
		e.set("trace.spans", float64(e.tr.len()))
		if err := e.tr.write(filepath.Join(e.outDir, "trace-"+e.workload+".json")); err != nil {
			return result{}, fmt.Errorf("writing trace: %w", err)
		}
	}
	res := result{
		Correct:   e.failed == 0,
		Attempted: e.attempted,
		Failed:    e.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v := e.values[d.Name] // a layer the workload does not touch reads 0
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("metric %s is not finite", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range e.values {
		if !inCatalogue(name) {
			return result{}, fmt.Errorf("metric %s is not in the catalogue", name)
		}
	}
	if res.Attempted < 1 {
		return result{}, errors.New("no operation attempted")
	}
	return res, nil
}

func inCatalogue(name string) bool {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return true
			}
		}
	}
	return false
}

// printResult writes the metrics by name, then the JSON line.
func printResult(w io.Writer, e *env, res result) error {
	defs := endToEnd
	if e.traced {
		defs = perLayer
	}
	for _, d := range defs {
		m := res.Metrics[d.Name]
		fmt.Fprintf(w, "%-32s %16.6g %s\n", d.Name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "%-32s %16d count\n%-32s %16d count\n", "ops_attempted", res.Attempted, "ops_failed", res.Failed)
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func header(w io.Writer) {
	fmt.Fprintf(w, "# dnsddos benchmark: nproc=%d GOMAXPROCS=%d go=%s kernel=%s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), kernelRelease(), runtime.GOOS, runtime.GOARCH)
}

func main() {
	var (
		workload  = flag.String("workload", "", "run one workload (default: all, each in a child process)")
		seed      = flag.Uint64("seed", 1, "seed every input is derived from")
		secs      = flag.Float64("seconds", 15, "how long the timed part of a workload measures")
		trace     = flag.Int("trace", 0, "1 = traced pass (per-layer metrics), 0 = end-to-end metrics")
		smoke     = flag.Bool("smoke", false, "tiny inputs: checks the harness, not the system")
		selfcheck = flag.Bool("selfcheck", false, "run every workload on ten seeds, twice, and compare spreads with bounds")
		outDir    = flag.String("out", filepath.Join("benchmark", "out"), "directory for trace files and scratch data")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *secs <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	// The workloads are sized for two cores; pin the scheduler so a wider
	// host runs the same experiment.
	if runtime.GOMAXPROCS(0) > cpuLimit {
		runtime.GOMAXPROCS(cpuLimit)
	}
	header(os.Stdout)

	if *workload == "" {
		child := childArgs{smoke: *smoke, seconds: *secs, outDir: *outDir}
		var err error
		if *selfcheck {
			err = runSelfcheck(os.Stdout, child, *seed)
		} else {
			err = runAll(os.Stdout, child, *seed)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}

	e := &env{
		workload: *workload,
		seed:     *seed,
		budget:   time.Duration(*secs * float64(time.Second)),
		traced:   *trace == 1,
		sc:       fullScale,
		outDir:   *outDir,
		log:      os.Stderr,
	}
	if *smoke {
		e.sc = smokeScale
	}
	res, err := runWorkload(e)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if err := printResult(os.Stdout, e, res); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}
