// Command predworker runs one worker process of the distributed runtime:
// it hosts a full engine instance (one evaluation application on the
// simulated cluster), joins a coordinator over the versioned TCP wire
// protocol (docs/WIRE_PROTOCOL.md), ships heartbeats and metric
// snapshots, and executes remote control commands — ratio updates, scale
// actions, fault injection, drains, and invariant checks.
//
// The process serves until the coordinator commands shutdown, the
// connection-level handshake permanently fails (version mismatch), or it
// receives SIGINT/SIGTERM, which triggers a clean Goodbye. A lost
// coordinator is retried with exponential backoff, rejoining under the
// same name with a bumped generation.
//
// Examples:
//
//	predworker -coordinator 127.0.0.1:7070 -name w1 -app urlcount -dynamic
//	predworker -coordinator 127.0.0.1:7070 -name w2 -app contquery -dynamic -rate 500
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"predstream/internal/apps/contquery"
	"predstream/internal/apps/urlcount"
	"predstream/internal/cluster"
	"predstream/internal/dsps"
	"predstream/internal/workload"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp), errors.Is(err, cluster.ErrShutdown):
		return
	default:
		fmt.Fprintf(os.Stderr, "predworker: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("predworker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	coordAddr := fs.String("coordinator", "", "coordinator address (host:port); required")
	name := fs.String("name", "", "stable worker name; required (rejoins bump the generation)")
	app := fs.String("app", "urlcount", "application: urlcount or contquery")
	dynamic := fs.Bool("dynamic", true, "use dynamic grouping on the controllable edge (lets the coordinator steer ratios)")
	nodes := fs.Int("nodes", 2, "simulated machines inside this worker's engine")
	workers := fs.Int("workers", 4, "engine-level worker processes (simulated)")
	seed := fs.Int64("seed", 1, "random seed")
	rate := fs.Float64("rate", 0, "spout rate in tuples/s (0 = unpaced)")
	queueSize := fs.Int("queue", 64, "per-executor input queue bound")
	batchSize := fs.Int("batch", 0, "data-plane micro-batch size in tuples (0 = engine default)")
	ackTimeout := fs.Duration("ack-timeout", 10*time.Second, "tuple-tree ack timeout")
	dialTimeout := fs.Duration("dial-timeout", 2*time.Second, "one connection attempt bound")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *coordAddr == "" {
		return errors.New("-coordinator is required")
	}
	if *name == "" {
		return errors.New("-name is required")
	}

	var shape workload.RateShape
	if *rate > 0 {
		shape = workload.ConstantRate{TPS: *rate}
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

	eng := dsps.NewCluster(dsps.ClusterConfig{
		Nodes: *nodes, Seed: *seed,
		QueueSize: *queueSize, MaxSpoutPending: 256,
		AckTimeout: *ackTimeout, BatchSize: *batchSize,
	})
	if err := eng.Submit(topo, dsps.SubmitConfig{Workers: *workers}); err != nil {
		return err
	}
	defer eng.Shutdown()

	groupings := map[string]*dsps.DynamicGrouping{}
	if dg != nil {
		groupings[stage] = dg
	}
	w, err := cluster.NewWorker(cluster.WorkerConfig{
		Name:        *name,
		Coordinator: *coordAddr,
		Engine:      eng,
		Topology:    topo.Name,
		Groupings:   groupings,
		Spouts:      topo.Spouts(),
		DialTimeout: *dialTimeout,
	})
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(stdout, "worker %q (%s, dynamic=%v) joining coordinator %s\n",
		*name, *app, *dynamic, *coordAddr)
	err = w.Run(ctx)
	if errors.Is(err, cluster.ErrShutdown) {
		fmt.Fprintf(stdout, "worker %q: shut down by coordinator\n", *name)
		return err
	}
	if err == nil {
		fmt.Fprintf(stdout, "worker %q: stopped\n", *name)
	}
	return err
}
