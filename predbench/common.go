package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what one pass of a workload measured: end-to-end metrics,
// per-layer metrics (filled only on a traced pass), the operation counts
// and the correctness verdict with the reasons for any failure.
type outcome struct {
	attempted, failed int64
	problems          []string
	e2e               map[string]float64
	layer             map[string]float64
	notes             []string
	// windowQ is the quantile over the windows' p99s reported as a
	// phase's p99: the median by default.
	windowQ float64
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, windowQ: 0.5}
}

// fail records a failed correctness check; n operations count as failed.
func (o *outcome) fail(n int64, format string, args ...any) {
	o.failed += n
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// note records one human-readable line for the report on stdout.
func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// latencies summarises raw latency samples (nanoseconds, in due order)
// over consecutive windows of at least p99WindowMin samples.
func (o *outcome) latencies(name string, ns []int64) {
	n := max(1, min(p99Windows, len(ns)/p99WindowMin))
	windows := make([][]int64, n)
	for i := range windows {
		windows[i] = ns[i*len(ns)/n : (i+1)*len(ns)/n]
	}
	o.windowedLatencies(name, windows)
}

// windowedLatencies reports the median over all samples and, as the p99,
// the windowQ-quantile of the windows' p99s. Host CPU steal on a shared
// machine arrives as stalls of a few milliseconds that inflate the tail of
// whichever window they hit; the median over many short windows is the
// steady-state tail, and moves only when most windows move.
func (o *outcome) windowedLatencies(name string, windows [][]int64) {
	var all, p99s []int64
	for _, w := range windows {
		if len(w) > 0 {
			all = append(all, w...)
			p99s = append(p99s, int64(quantile(slices.Clone(w), 0.99)))
		}
	}
	p50, p99 := quantile(all, 0.5), quantile(p99s, o.windowQ)
	o.e2e["complete_p50_ms."+name] = p50 / 1e6
	o.e2e["complete_p99_ms."+name] = p99 / 1e6
	o.note("%s: n=%d p50=%.4fms p99=%.4fms (p99 = %g-quantile over %d windows)", name, len(all), p50/1e6, p99/1e6, o.windowQ, len(p99s))
}

// p99 windows: at most p99Windows of at least p99WindowMin samples each.
const (
	p99Windows   = 1024
	p99WindowMin = 100
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place. It returns 0 for no samples.
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return float64(xs[lo])*(1-frac) + float64(xs[hi])*frac
}

// median of float samples (copied, not sorted in place).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runtimeStats is a point-in-time read of the Go runtime counters the
// runtime.* per-layer metrics are deltas of.
type runtimeStats struct {
	allocBytes float64
	gcCPU      float64
	totalCPU   float64
}

var runtimeSampleNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeStats {
	samples := make([]metrics.Sample, len(runtimeSampleNames))
	for i, n := range runtimeSampleNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	val := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		case metrics.KindFloat64:
			return s.Value.Float64()
		}
		return 0
	}
	return runtimeStats{allocBytes: val(samples[0]), gcCPU: val(samples[1]), totalCPU: val(samples[2])}
}

// runtimeLayer records runtime.alloc_b_per_tuple and runtime.gc_cpu_frac
// between two reads over ops operations.
func runtimeLayer(layer map[string]float64, a, b runtimeStats, ops int64) {
	if ops > 0 {
		layer["runtime.alloc_b_per_tuple"] = (b.allocBytes - a.allocBytes) / float64(ops)
	}
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		layer["runtime.gc_cpu_frac"] = (b.gcCPU - a.gcCPU) / cpu
	}
}

// nowNs is the wall clock in Unix nanoseconds: the one time base shared by
// the benchmark process and its fleet worker process.
func nowNs() int64 { return time.Now().UnixNano() }

// sleepUntil sleeps until the wall-clock instant t (Unix nanoseconds).
func sleepUntil(t int64) {
	if d := time.Duration(t - nowNs()); d > 0 {
		time.Sleep(d)
	}
}
