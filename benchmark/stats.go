package main

import (
	"math"
	"math/rand"
	"os"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the q-quantile (0..1) of xs by the nearest-rank
// rule, and how many samples lie strictly beyond it. xs is sorted in
// place.
func percentile(xs []float64, q float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	slices.Sort(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	i = min(max(i, 0), len(xs)-1)
	return xs[i], len(xs) - 1 - i
}

func median(xs []float64) float64 {
	v, _ := percentile(append([]float64(nil), xs...), 0.5)
	return v
}

// quartiles returns Q1, median and Q3 with the same method as Python's
// statistics.quantiles(xs, n=4) (the "exclusive" method), so spreads
// computed here match the ones an outside checker computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		// CPython's statistics.quantiles, method="exclusive", n=4.
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// cpuNs is the process's user plus system CPU time.
func cpuNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// resetPeakRSS resets the kernel's peak-resident-set mark of the process
// (Linux: "5" written to /proc/self/clear_refs). Best-effort: where it
// fails, peakRSSMB reports the lifetime peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set since resetPeakRSS
// (VmHWM), or over its lifetime where /proc is unavailable.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(v, "kB")), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// rtSample is a snapshot of the runtime counters the benchmark reports.
type rtSample struct {
	allocObjs, allocBytes, gcCycles float64
	gcCPU, userCPU                  float64 // seconds
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/user:cpu-seconds",
}

func readRuntime() rtSample {
	ss := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		ss[i].Name = n
	}
	metrics.Read(ss)
	v := func(i int) float64 {
		switch ss[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(ss[i].Value.Uint64())
		case metrics.KindFloat64:
			return ss[i].Value.Float64()
		}
		return 0
	}
	return rtSample{allocObjs: v(0), allocBytes: v(1), gcCycles: v(2), gcCPU: v(3), userCPU: v(4)}
}

func (a rtSample) sub(b rtSample) rtSample {
	return rtSample{
		allocObjs: a.allocObjs - b.allocObjs, allocBytes: a.allocBytes - b.allocBytes,
		gcCycles: a.gcCycles - b.gcCycles, gcCPU: a.gcCPU - b.gcCPU, userCPU: a.userCPU - b.userCPU,
	}
}

func (a rtSample) add(b rtSample) rtSample { return a.sub(rtSample{}.sub(b)) }

// calibrate times a fixed CPU kernel — sorting 1M ints drawn from a
// fixed seed, independent of the workload seed — three times and
// returns the median, in ms. It tells a slow host apart from a slow
// program: the kernel never changes.
func calibrate() float64 {
	in := make([]int, 1<<20)
	r := rand.New(rand.NewSource(20070923))
	for i := range in {
		in[i] = r.Int()
	}
	xs := make([]int, len(in))
	ts := make([]float64, 3)
	for i := range ts {
		copy(xs, in)
		t0 := time.Now()
		slices.Sort(xs)
		ts[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
	}
	return median(ts)
}

// window is one sampling interval of the measured phase.
type window struct {
	start, end int64 // nanotime
	cpu        int64 // process CPU ns spent in it
}

// windowRates credits each operation to the windows it overlaps, in
// proportion to the overlap, and returns per window the operations
// completed per second and the CPU ms per operation. Medians of these
// are steady against short host stalls, which move a whole-run mean.
func windowRates(ws []window, ops []opRecord, kind opKind) (perSec, cpuMsPerOp []float64) {
	credit := make([]float64, len(ws))
	all := make([]float64, len(ws))
	for _, o := range ops {
		d := float64(o.end - o.start)
		for i, w := range ws {
			lo, hi := max(o.start, w.start), min(o.end, w.end)
			if hi <= lo {
				continue
			}
			share := 1.0
			if d > 0 {
				share = float64(hi-lo) / d
			}
			all[i] += share
			if o.kind == kind {
				credit[i] += share
			}
		}
	}
	for i, w := range ws {
		secs := float64(w.end-w.start) / 1e9
		if secs <= 0 || all[i] == 0 {
			continue
		}
		perSec = append(perSec, credit[i]/secs)
		cpuMsPerOp = append(cpuMsPerOp, float64(w.cpu)/1e6/all[i])
	}
	return perSec, cpuMsPerOp
}
