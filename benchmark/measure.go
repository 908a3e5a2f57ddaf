package main

import (
	"bytes"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"dnsddos/internal/stats"
)

// usage is what one measured stretch of work cost the process.
type usage struct {
	wall       time.Duration
	cpu        time.Duration // user + system, all threads
	steal      time.Duration // all CPUs, see stealTime
	allocBytes uint64
	mallocs    uint64
}

type usageMark struct {
	t     time.Time
	cpu   time.Duration
	steal time.Duration
	heap  runtime.MemStats
}

func markUsage() usageMark {
	var m usageMark
	runtime.ReadMemStats(&m.heap)
	m.steal = stealTime()
	m.cpu = cpuTime()
	m.t = time.Now()
	return m
}

func (m usageMark) since() usage {
	wall := time.Since(m.t)
	cpu := cpuTime() - m.cpu
	steal := stealTime() - m.steal
	var heap runtime.MemStats
	runtime.ReadMemStats(&heap)
	return usage{
		wall:       wall,
		cpu:        cpu,
		steal:      steal,
		allocBytes: heap.TotalAlloc - m.heap.TotalAlloc,
		mallocs:    heap.Mallocs - m.heap.Mallocs,
	}
}

// stealTick is the unit /proc/stat counts in (USER_HZ = 100 on Linux).
const stealTick = 10 * time.Millisecond

// stealTime is how long, summed over the CPUs and since boot, the
// hypervisor ran something else while a virtual CPU had work: the eighth
// number of the first line of /proc/stat, in ticks. It reads 0 where the
// kernel does not say (bare metal, or no /proc).
func stealTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	fields := bytes.Fields(line)
	if len(fields) < 9 || string(fields[0]) != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(string(fields[8]), 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * stealTick
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set; Linux reports
// ru_maxrss in KiB.
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

func kernelRelease() string {
	var u syscall.Utsname
	if syscall.Uname(&u) != nil {
		return "unknown"
	}
	b := make([]byte, 0, len(u.Release))
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b = append(b, byte(c))
	}
	return string(b)
}

// steadyQuantile is the share of repeats steady lets read lower than the
// value it reports.
const steadyQuantile = 0.1

// steady is the value reported for a timing that was repeated: what a
// repeat costs when the machine leaves it alone. It is the one timing rule
// of all four workloads. The build machine is a 2-vCPU guest on a shared
// host, and two things only ever add to a repeat. The hypervisor takes the
// virtual CPUs away — the same study run reads 1 650 ms untouched and
// 3 600 ms when they are held off for 1.3 s meanwhile, and its process CPU
// time grows by the time stolen — and the kernel counts that time
// (stealTime), so each repeat carries its own reading: steady fits
// time = a + b*steal over the repeats by least squares and subtracts
// b*steal. b is held to [0, 1]: a stolen millisecond delays the work by at
// most about that, and with steal near zero on every repeat an unbounded
// fit would chase the 10 ms tick. What shares the physical cores slows a
// repeat by up to half without being counted anywhere, from one second to
// the next, so steady then takes the first decile of the repeats, not
// their median. Over ten seeds each of study_batch and study_sealed in one
// hour, the quartile spread of op_wall_ms was 25% and 43% with the plain
// median of the repeats, 17% and 27% with their plain minimum, and 9% and
// 6% with steady.
func steady(times, steals []float64) float64 {
	mt, ms := stats.Mean(times), stats.Mean(steals)
	var sxy, sxx float64
	for i := range times {
		sxy += (steals[i] - ms) * (times[i] - mt)
		sxx += (steals[i] - ms) * (steals[i] - ms)
	}
	b := min(max(stats.Ratio(sxy, sxx), 0), 1)
	free := make([]float64, len(times))
	for i := range times {
		free[i] = times[i] - b*steals[i]
	}
	return stats.Quantile(free, steadyQuantile)
}

// opCost is what one operation cost in one repeat of a workload. stealMS
// is in the unit of the timings: per operation where they are.
type opCost struct {
	wallMS, cpuMS, stealMS, allocKB, allocs float64
}

// perOp spreads a measured stretch over the n operations it held; wall is
// the operation's own wall time, which the caller measures.
func (u usage) perOp(wall time.Duration, n float64) opCost {
	return opCost{
		wallMS:  wall.Seconds() * 1e3,
		cpuMS:   u.cpu.Seconds() * 1e3 / n,
		stealMS: u.steal.Seconds() * 1e3 / n,
		allocKB: float64(u.allocBytes) / 1e3 / n,
		allocs:  float64(u.mallocs) / n,
	}
}

func pick(cs []opCost, f func(opCost) float64) []float64 {
	xs := make([]float64, len(cs))
	for i, c := range cs {
		xs[i] = f(c)
	}
	return xs
}

func wallOf(c opCost) float64  { return c.wallMS }
func cpuOf(c opCost) float64   { return c.cpuMS }
func stealOf(c opCost) float64 { return c.stealMS }

// steadyOf is the steady value of one timing of the repeats.
func steadyOf(cs []opCost, f func(opCost) float64) float64 {
	return steady(pick(cs, f), pick(cs, stealOf))
}

// splitmix64 derives independent seeds from the one --seed argument.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// subSeed is the seed of one named consumer (world, attacks, ...).
func subSeed(seed uint64, stream uint64) uint64 { return splitmix64(seed ^ splitmix64(stream)) }
