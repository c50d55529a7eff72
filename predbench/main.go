// Command predbench is the repository benchmark. It runs one named
// workload against the stream engine, the fleet control loop or the
// prediction server, checks the outputs, and prints every metric by name
// with its unit; the last line of standard output is one JSON object.
//
//	predbench --workload ingest|fleet-misbehave|serve-open --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it runs
// the workload twice, untraced and then traced, and reports the per-layer
// metrics, each layer's self time, and the tracing overhead (traced minus
// untraced end-to-end numbers); the traced pass's spans are written to
// .bench_build/spans/. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
)

// e2eUnits are the end-to-end metrics every workload reports.
var e2eUnits = map[string]string{
	"setup_s":              "s",
	"acked_tps":            "1/s",
	"complete_p50_ms.low":  "ms",
	"complete_p99_ms.low":  "ms",
	"complete_p50_ms.high": "ms",
	"complete_p99_ms.high": "ms",
	"ok_frac":              "ratio",
	"max_rss_mb":           "MiB",
}

// layerUnits are the per-layer metrics every traced run reports; a layer
// the workload does not exercise reads 0.
var layerUnits = map[string]string{
	"dsps.emit_ns":                  "ns",
	"dsps.handoff_us":               "us",
	"dsps.fields_hop_us":            "us",
	"dsps.ack_us":                   "us",
	"dsps.tuples_per_batch.low":     "count",
	"dsps.tuples_per_batch.high":    "count",
	"dsps.backpressure_frac.low":    "ratio",
	"dsps.backpressure_frac.high":   "ratio",
	"dsps.queue_wait_us.low":        "us",
	"dsps.queue_wait_us.high":       "us",
	"dsps.tuples_per_batch.sat":     "count",
	"dsps.backpressure_frac.sat":    "ratio",
	"dsps.queue_wait_us.sat":        "us",
	"dsps.key_skew":                 "ratio",
	"runtime.alloc_b_per_tuple":     "B",
	"runtime.gc_cpu_frac":           "ratio",
	"core.step_ms":                  "ms",
	"core.detect_steps":             "count",
	"core.bypass_ms":                "ms",
	"cluster.snapshot_rpc_ms":       "ms",
	"cluster.setratios_rpc_ms":      "ms",
	"drnn.predict_us":               "us",
	"drnn.fit_s":                    "s",
	"drnn.forward_us_per_window":    "us",
	"drnn.forward_gflops":           "GFLOP/s",
	"serve.queue_wait_us.low":       "us",
	"serve.queue_wait_us.high":      "us",
	"serve.batch_mean.low":          "count",
	"serve.batch_mean.high":         "count",
	"serve.shed_frac":               "ratio",
	"workload.gen_lag_p99_ms":       "ms",
	"self_us.workload":              "us",
	"self_us.app":                   "us",
	"self_us.dsps":                  "us",
	"self_us.core":                  "us",
	"self_us.cluster":               "us",
	"self_us.drnn":                  "us",
	"self_us.serve":                 "us",
	"trace.spans":                   "count",
	"overhead.acked_tps":            "1/s",
	"overhead.complete_p50_ms.low":  "ms",
	"overhead.complete_p99_ms.low":  "ms",
	"overhead.complete_p50_ms.high": "ms",
	"overhead.complete_p99_ms.high": "ms",
}

// workloads maps each workload name to one pass: (seed, seconds, traced,
// span file path).
var workloads = map[string]func(int64, float64, bool, string) (*outcome, error){
	"ingest":          runIngest,
	"fleet-misbehave": runFleet,
	"serve-open":      runServe,
}

// exitHooks run before the process exits on a signal, so a worker process
// never outlives the benchmark.
var exitHooks struct {
	sync.Mutex
	fns []func()
}

func onExit(fn func()) {
	exitHooks.Lock()
	exitHooks.fns = append(exitHooks.fns, fn)
	exitHooks.Unlock()
}

func runExitHooks() {
	exitHooks.Lock()
	fns := exitHooks.fns
	exitHooks.fns = nil
	exitHooks.Unlock()
	for _, fn := range fns {
		fn()
	}
}

func main() {
	workload := flag.String("workload", "", "workload to run: ingest, fleet-misbehave or serve-open")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 10, "measured duration of one pass")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from an extra traced pass")
	worker := flag.Bool("fleet-worker", false, "run as the fleet-misbehave worker process (internal)")
	coord := flag.String("coordinator", "", "coordinator address (fleet worker only)")
	flag.Parse()

	if *worker {
		if err := fleetWorkerMain(*coord, *seed); err != nil {
			fmt.Fprintln(os.Stderr, "predbench worker:", err)
			os.Exit(1)
		}
		return
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	go func() {
		<-sigs
		runExitHooks()
		os.Exit(2)
	}()

	res, err := run(*workload, *seed, *seconds, *traced == 1)
	runExitHooks()
	if err != nil {
		fmt.Fprintln(os.Stderr, "predbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "predbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(workload string, seed int64, seconds float64, traced bool) (*result, error) {
	pass, ok := workloads[workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	if seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	base, err := pass(seed, seconds, false, "")
	if err != nil {
		return nil, err
	}
	report(workload+" untraced", base)
	res := &result{Attempted: base.attempted, Failed: base.failed, Metrics: map[string]metric{}}
	problems := base.problems
	if !traced {
		base.e2e["ok_frac"] = float64(base.attempted-base.failed) / float64(base.attempted)
		for name, unit := range e2eUnits {
			res.Metrics[name] = metric{Value: base.e2e[name], Unit: unit}
		}
	} else {
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
		tr, err := pass(seed, seconds, true, path)
		if err != nil {
			return nil, err
		}
		report(workload+" traced", tr)
		for _, name := range []string{"acked_tps", "complete_p50_ms.low", "complete_p99_ms.low", "complete_p50_ms.high", "complete_p99_ms.high"} {
			tr.layer["overhead."+name] = tr.e2e[name] - base.e2e[name]
		}
		for name, unit := range layerUnits {
			res.Metrics[name] = metric{Value: tr.layer[name], Unit: unit}
		}
		res.Attempted += tr.attempted
		res.Failed += tr.failed
		problems = append(problems, tr.problems...)
	}
	res.Correct = len(problems) == 0 && res.Attempted > 0
	for _, p := range problems {
		fmt.Println("CHECK FAILED:", p)
	}
	return res, nil
}

// report prints one pass's notes and metrics, sorted by name.
func report(title string, o *outcome) {
	fmt.Printf("== %s: attempted=%d failed=%d\n", title, o.attempted, o.failed)
	for _, n := range o.notes {
		fmt.Println("  " + n)
	}
	for _, m := range []map[string]float64{o.e2e, o.layer} {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			unit := e2eUnits[n]
			if unit == "" {
				unit = layerUnits[n]
			}
			fmt.Printf("  %-32s %14.6g %s\n", n, m[n], unit)
		}
	}
}
