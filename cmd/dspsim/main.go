// Command dspsim runs one of the evaluation applications on the simulated
// cluster and prints live per-worker statistics, optionally with fault
// injection and the predictive control loop enabled — a minimal
// operational console for the engine.
//
// With -chaos it instead replays a seeded random fault schedule while the
// chaos harness checks engine invariants (tuple conservation, acker
// quiescence, monotone counters, bounded queues); any violation exits
// non-zero and prints the reproducing seed. This is what `make soak` and
// `make soak-short` run.
//
// Examples:
//
//	dspsim -app urlcount -duration 10s
//	dspsim -app urlcount -dynamic -control -fault-worker worker-1 -fault-at 4s -slowdown 8 -duration 15s
//	dspsim -app urlcount -chaos -chaos-seed 7 -duration 8s
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"predstream/internal/apps/contquery"
	"predstream/internal/apps/urlcount"
	"predstream/internal/chaos"
	"predstream/internal/console"
	"predstream/internal/core"
	"predstream/internal/dsps"
	"predstream/internal/obs"
	"predstream/internal/telemetry"
	"predstream/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintf(os.Stderr, "dspsim: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dspsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	app := fs.String("app", "urlcount", "application: urlcount or contquery")
	duration := fs.Duration("duration", 10*time.Second, "run duration (chaos: fault-schedule horizon)")
	statsEvery := fs.Duration("stats", time.Second, "statistics print period")
	nodes := fs.Int("nodes", 2, "simulated machines")
	workers := fs.Int("workers", 4, "worker processes")
	dynamic := fs.Bool("dynamic", false, "use dynamic grouping on the controllable edge")
	control := fs.Bool("control", false, "run the predictive control loop (requires -dynamic)")
	controlPeriod := fs.Duration("control-period", 500*time.Millisecond, "control loop period")
	faultWorker := fs.String("fault-worker", "", "inject a fault into this worker")
	faultAt := fs.Duration("fault-at", 0, "when to inject the fault")
	slowdown := fs.Float64("slowdown", 8, "fault slowdown factor")
	rate := fs.Float64("rate", 0, "spout rate in tuples/s (0 = unpaced; non-constant shapes default to 500)")
	shapeName := fs.String("shape", "constant", "workload rate shape: constant, sinusoid (diurnal), or burst (flash crowd)")
	elastic := fs.Bool("elastic", false, "make stage parallelism live: with -control the planner emits scale actions; with -chaos the schedule carries scale-up/scale-down events")
	elasticMin := fs.Int("elastic-min", 1, "parallelism floor for elastic scale-downs")
	elasticMax := fs.Int("elastic-max", 8, "parallelism ceiling for elastic scale-ups")
	seed := fs.Int64("seed", 1, "random seed")
	httpAddr := fs.String("http", "", "serve the JSON console on this address (e.g. :8080)")
	chaosMode := fs.Bool("chaos", false, "replay a generated fault schedule under invariant checking instead of the stats loop")
	chaosSeed := fs.Int64("chaos-seed", 1, "chaos schedule seed (the reproducer token)")
	chaosEvents := fs.Int("chaos-events", 0, "chaos events over the horizon (0 = ~2 per second)")
	chaosVerbose := fs.Bool("chaos-verbose", false, "log each chaos event as it fires")
	ackerShards := fs.Int("acker-shards", 0, "acker shard count, rounded up to a power of two (0 = engine default)")
	batchSize := fs.Int("batch", 0, "data-plane micro-batch size in tuples, clamped to the queue size (0 = engine default)")
	flushInterval := fs.Duration("flush-interval", 0, "spout partial-batch flush deadline (0 = engine default)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file on shutdown")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on shutdown")
	obsAddr := fs.String("obs", "", "serve the observability endpoints (/metrics /healthz /trace.json /trace/chrome /events /debug/pprof) on this address (e.g. :9090)")
	traceSample := fs.Float64("trace-sample", 0, "fraction of anchored roots to trace (0 disables; chaos mode defaults to 0.05)")
	traceBuf := fs.Int("trace-buf", 0, "trace ring capacity in spans (0 = default 4096)")
	coordinator := fs.Bool("coordinator", false, "run as the fleet coordinator for predworker processes instead of an in-process engine (see docs/CLUSTER.md)")
	listen := fs.String("listen", "127.0.0.1:7070", "coordinator listen address")
	expect := fs.Int("expect", 0, "workers to wait for before starting the stats loop (0 = don't wait)")
	joinWait := fs.Duration("join-wait", 30*time.Second, "how long to wait for the expected workers")
	heartbeat := fs.Duration("heartbeat", 500*time.Millisecond, "coordinator: contracted worker heartbeat period")
	deadAfter := fs.Duration("dead-after", 2*time.Second, "coordinator: heartbeat silence after which a worker is declared dead")
	metricsEvery := fs.Duration("metrics-every", time.Second, "coordinator: contracted metric-snapshot period")
	shutdownWorkers := fs.Bool("shutdown-workers", false, "coordinator: command all workers to exit when the duration elapses")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *coordinator {
		return runCoordinator(coordinatorConfig{
			listen: *listen, expect: *expect, joinWait: *joinWait,
			duration: *duration, statsEvery: *statsEvery,
			heartbeatEvery: *heartbeat, deadAfter: *deadAfter, metricsEvery: *metricsEvery,
			control: *control, controlPeriod: *controlPeriod,
			obsAddr: *obsAddr, shutdown: *shutdownWorkers,
		}, stdout, stderr)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "memprofile: %v\n", err)
			}
		}()
	}

	var shape workload.RateShape
	base := *rate
	if base <= 0 && *shapeName != "constant" {
		base = 500
	}
	switch *shapeName {
	case "constant":
		if base > 0 {
			shape = workload.ConstantRate{TPS: base}
		}
	case "sinusoid":
		shape = workload.SinusoidRate{Base: base, Amplitude: 0.8 * base, Period: *duration / 2}
	case "burst":
		shape = workload.BurstRate{Base: base, BurstX: 4, Period: *duration / 3, Duration: *duration / 10}
	default:
		return fmt.Errorf("unknown shape %q (want constant, sinusoid, or burst)", *shapeName)
	}
	var topo *dsps.Topology
	var dg *dsps.DynamicGrouping
	var stage string
	var err error
	switch *app {
	case "urlcount":
		topo, _, dg, err = urlcount.Build(urlcount.Config{
			Dynamic: *dynamic, Shape: shape, Seed: *seed,
			ParseCost: 5 * time.Millisecond, CountCost: -1,
		})
		stage = "parse"
	case "contquery":
		topo, _, dg, err = contquery.Build(contquery.Config{
			Dynamic: *dynamic, Shape: shape, Seed: *seed,
			QueryCost: 5 * time.Millisecond,
		})
		stage = "query"
	default:
		err = fmt.Errorf("unknown app %q", *app)
	}
	if err != nil {
		return err
	}

	cfg := dsps.ClusterConfig{
		Nodes: *nodes, Seed: *seed,
		QueueSize: 64, MaxSpoutPending: 256, AckTimeout: 10 * time.Second,
		AckerShards: *ackerShards, BatchSize: *batchSize, FlushInterval: *flushInterval,
	}
	if *chaosMode {
		// Dropped tuples only fail via the ack-timeout sweep, so the final
		// drain is bounded by it; and queues need headroom beyond the
		// in-flight cap so a single stalled worker cannot wedge the whole
		// pipeline through backpressure.
		cfg.AckTimeout = 2 * time.Second
		cfg.QueueSize = 2048
	}
	cfg.TraceSampleRate = *traceSample
	cfg.TraceBufferSize = *traceBuf
	if *chaosMode && cfg.TraceSampleRate == 0 {
		// A failing chaos seed dumps its sampled trace, so chaos runs keep
		// a light tracer on by default.
		cfg.TraceSampleRate = 0.05
	}
	var obsSink *obs.MemorySink
	var obsLogger *obs.Logger
	if *obsAddr != "" {
		obsSink = obs.NewMemorySink(1024)
		obsLogger = obs.NewLogger(obsSink, obs.LevelDebug)
		cfg.Events = obsLogger
	}
	cluster := dsps.NewCluster(cfg)
	if err := cluster.Submit(topo, dsps.SubmitConfig{Workers: *workers}); err != nil {
		return err
	}
	defer cluster.Shutdown()
	fmt.Fprintf(stdout, "running %s on %d nodes / %d workers for %v (dynamic=%v control=%v chaos=%v)\n",
		*app, *nodes, *workers, *duration, *dynamic, *control, *chaosMode)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if !*chaosMode {
		ctx, cancel = context.WithTimeout(context.Background(), *duration)
		defer cancel()
	}
	var ctrl *core.Controller
	if *control {
		if !*dynamic {
			return fmt.Errorf("-control requires -dynamic")
		}
		ctrlCfg := core.Config{Policy: core.PolicyBypass}
		if *elastic {
			ctrlCfg.Scale = &core.ScaleConfig{
				MinParallelism: *elasticMin,
				MaxParallelism: *elasticMax,
			}
		}
		if obsLogger != nil {
			ctrlCfg.Events = obsLogger
		}
		ctrl, err = core.NewController(cluster,
			[]core.ControlTarget{{Component: stage, Grouping: dg}},
			ctrlCfg)
		if err != nil {
			return err
		}
		go func() {
			if err := ctrl.Run(ctx, *controlPeriod); err != nil {
				fmt.Fprintf(stderr, "control loop: %v\n", err)
			}
		}()
	}
	if obsLogger != nil && dg != nil {
		lg, comp := obsLogger, stage
		dg.SetOnChange(func(ratios []float64) {
			lg.Info("dynamic ratios changed",
				obs.String("component", comp), obs.String("ratios", fmt.Sprint(ratios)))
		})
	}

	sampler := telemetry.NewSamplerFiltered(0, stage)
	var chaosMetrics *chaos.Metrics
	if *chaosMode {
		chaosMetrics = &chaos.Metrics{}
	}
	if *obsAddr != "" {
		reg := obs.NewRegistry()
		reg.Register(obs.NewClusterCollector(cluster))
		reg.Register(obs.NewRuntimeCollector())
		if ctrl != nil {
			reg.Register(obs.NewControllerCollector(ctrl))
		}
		if chaosMetrics != nil {
			reg.Register(obs.NewChaosCollector(chaosMetrics))
		} else {
			reg.Register(obs.NewSamplerCollector(sampler))
		}
		srv, err := obs.NewServer(*obsAddr, obs.ServerConfig{Registry: reg, Trace: cluster.Trace(), Events: obsSink})
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(stdout, "observability listening on %s (/metrics /healthz /trace.json /trace/chrome /events /debug/pprof)\n", srv.Addr())
	}

	if *chaosMode {
		cc := chaosConfig{
			seed: *chaosSeed, events: *chaosEvents, horizon: *duration,
			workers: *workers, stage: stage, controlPeriod: *controlPeriod,
			verbose: *chaosVerbose, metrics: chaosMetrics, elastic: *elastic,
		}
		if obsLogger != nil {
			cc.sink = obsLogger
		}
		return runChaos(cluster, topo, dg, ctrl, cc, stdout)
	}

	if *httpAddr != "" {
		srv, err := console.New(cluster, sampler, ctrl)
		if err != nil {
			return err
		}
		go func() {
			fmt.Fprintf(stdout, "console listening on %s (/healthz /snapshot /workers /control)\n", *httpAddr)
			if err := http.ListenAndServe(*httpAddr, srv); err != nil {
				fmt.Fprintf(stderr, "console: %v\n", err)
			}
		}()
	}
	start := time.Now()
	faulted := false
	ticker := time.NewTicker(*statsEvery)
	defer ticker.Stop()
	prev := cluster.Snapshot()
	sampler.Sample(prev)
	for {
		select {
		case <-ctx.Done():
			final := cluster.Snapshot()
			fmt.Fprintf(stdout, "\nfinal: acked=%d failed=%d inflight=%d\n",
				final.TotalAcked(), final.TotalFailed(), cluster.InFlight())
			return nil
		case <-ticker.C:
		}
		if !faulted && *faultWorker != "" && time.Since(start) >= *faultAt {
			if err := cluster.InjectFault(*faultWorker, dsps.Fault{Slowdown: *slowdown}); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "-- injected %.0fx slowdown on %s --\n", *slowdown, *faultWorker)
			faulted = true
		}
		snap := cluster.Snapshot()
		sampler.Sample(snap)
		dt := snap.At.Sub(prev.At).Seconds()
		acked := float64(snap.TotalAcked()-prev.TotalAcked()) / dt
		failed := float64(snap.TotalFailed()-prev.TotalFailed()) / dt
		prev = snap
		fmt.Fprintf(stdout, "[%5.1fs] acked/s=%7.0f failed/s=%5.0f inflight=%4d",
			time.Since(start).Seconds(), acked, failed, cluster.InFlight())
		ids := sampler.Workers()
		sort.Strings(ids)
		for _, id := range ids {
			wins := sampler.Series(id)
			if len(wins) == 0 {
				continue
			}
			w := wins[len(wins)-1]
			marker := ""
			if w.Misbehaving {
				marker = "!"
			}
			fmt.Fprintf(stdout, "  %s%s=%.1fms", id, marker, w.AvgExecMs)
		}
		fmt.Fprintln(stdout)
	}
}

type chaosConfig struct {
	seed          int64
	events        int
	horizon       time.Duration
	workers       int
	stage         string
	controlPeriod time.Duration
	verbose       bool
	metrics       *chaos.Metrics
	sink          dsps.EventSink
	elastic       bool
}

// runChaos generates a seeded fault schedule, replays it under invariant
// checking, prints the report, and returns an error carrying the
// reproducing seed if any invariant broke.
func runChaos(cluster *dsps.Cluster, topo *dsps.Topology, dg *dsps.DynamicGrouping, ctrl *core.Controller, cc chaosConfig, stdout io.Writer) error {
	events := cc.events
	if events <= 0 {
		events = int(2 * cc.horizon / time.Second)
		if events < 6 {
			events = 6
		}
	}
	gen := chaos.GenConfig{
		Events:  events,
		Horizon: cc.horizon,
		Workers: cc.workers,
		Stall:   true, Checkpoint: true, Pause: true,
	}
	if cc.elastic {
		gen.Scale = true
		gen.ScaleComponents = []string{cc.stage}
	}
	script := chaos.Generate(cc.seed, gen)
	opts := chaos.Options{SpoutComponents: topo.Spouts(), Metrics: cc.metrics, Events: cc.sink}
	if cc.verbose {
		opts.Log = stdout
	}
	if ctrl != nil {
		// The controller needs several periods of post-stall windows before
		// the stall channel flags a worker; give it generous latency.
		latency := 10 * cc.controlPeriod
		if latency < 5*time.Second {
			latency = 5 * time.Second
		}
		opts.Controlled = []chaos.ControlledEdge{{
			Component: cc.stage, Grouping: dg, DetectionLatency: latency,
		}}
	}
	fmt.Fprintf(stdout, "chaos: replaying %d events over %v (seed %d)\n", len(script.Events), cc.horizon, cc.seed)
	rep, err := chaos.Run(cluster, script, opts)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, rep)
	if cc.elastic {
		for _, sc := range cluster.Snapshot().Scale {
			fmt.Fprintf(stdout, "elastic: topology=%s ups=%d downs=%d route_epoch=%d retired=%d\n",
				sc.Topology, sc.Ups, sc.Downs, sc.RouteEpoch, sc.Retired)
		}
	}
	if rerr := rep.Err(); rerr != nil {
		// A failing seed dumps its sampled tuple trace so the violation can
		// be inspected offline (or replayed via docs/OBSERVABILITY.md).
		if tr := cluster.Trace(); tr != nil {
			path := fmt.Sprintf("chaos_trace_%d.json", cc.seed)
			if f, ferr := os.Create(path); ferr == nil {
				obs.WriteTraceJSON(f, tr.Spans())
				f.Close()
				fmt.Fprintf(stdout, "chaos: wrote sampled trace of failing seed to %s (%d spans)\n", path, tr.Len())
			} else {
				fmt.Fprintf(stdout, "chaos: could not write trace: %v\n", ferr)
			}
		}
		return rerr
	}
	return nil
}
