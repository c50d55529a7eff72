package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"predstream/internal/cluster"
	"predstream/internal/core"
	"predstream/internal/drnn"
	"predstream/internal/dsps"
	"predstream/internal/timeseries"
)

// The fleet-misbehave workload: this process runs a cluster.Coordinator
// and drives core.Controller.Step on its own period; one worker process —
// this binary re-executed with --fleet-worker — hosts spout → parse(4,
// dynamic grouping, 5ms service cost) → count, fed by a constant open-loop
// schedule. A seeded sequence of 10× slowdown cycles hits one parse-hosting
// engine worker at a time through RemoteEngine.InjectFault.
const (
	// fleetRate is sustainable once the controller bypasses the faulty
	// worker (3 healthy parse tasks at 5ms each serve 600/s) and
	// unsustainable without bypass (the victim's quarter, 100/s, exceeds
	// its 20/s capacity under a 10× slowdown).
	fleetRate     = 400
	fleetParse    = 4
	fleetCount    = 2
	fleetExecCost = 5 * time.Millisecond
	fleetSlowdown = 10
	// fleetProbe is the share a bypassed task keeps (8/s, under the
	// victim's 20/s capacity).
	fleetProbe  = 0.02
	fleetPeriod = 100 * time.Millisecond
	// fleetFaultPhase is how long after a control step a fault is
	// injected or cleared.
	fleetFaultPhase = 30 * time.Millisecond
	// fleetHistory is the number of warm-up control steps whose windows
	// the per-worker DRNNs are fitted on during set-up.
	fleetHistory = 15
	// fleetCalmSteps opens the measured window with calm steps before the
	// first fault.
	fleetCalmSteps = 5
	fleetSetups    = 3
	fleetWorker    = "w0"
	fleetMaxRoots  = fleetRate * 600
)

// fleetModel is the controller's per-worker DRNN: small enough to fit on
// fleetHistory windows in set-up.
var fleetModel = drnn.Config{Window: 5, Hidden: []int{8}, DenseHidden: []int{4}, Epochs: 10, Seed: 1}

// ---- worker process ----

// fleetWorkerState is shared by the worker's spout and its stdin reader.
type fleetWorkerState struct {
	keys  []uint16
	start atomic.Int64 // schedule start (Unix ns); 0 until the parent says so
	acked atomic.Int64

	// Written only on the spout goroutine; read after the engine stops.
	acks    []int64 // ack time per seq, 0 = not acked
	lags    []int64 // emit time − due time per seq
	emitted int
	fails   int64
	dups    int64

	marks []runtimeMark // appended by the stdin reader, read after Run
	mu    sync.Mutex
}

type runtimeMark struct {
	rt    runtimeStats
	acked int64
}

// fleetDump is what the worker hands the parent on its stdout at shutdown:
// raw per-root samples, never the engine's histograms.
type fleetDump struct {
	Acks   []int64 `json:"acks"`
	Lags   []int64 `json:"lags"`
	Fails  int64   `json:"fails"`
	Dups   int64   `json:"dups"`
	RSSMB  float64 `json:"rss_mb"`
	AllocB float64 `json:"alloc_b_per_tuple"`
	GCFrac float64 `json:"gc_cpu_frac"`
}

func fleetDue(start int64, seq int) int64 { return start + int64(seq)*1e9/fleetRate }

type fleetSpout struct {
	dsps.BaseSpout
	st  *fleetWorkerState
	col dsps.SpoutCollector
}

func (s *fleetSpout) Open(_ dsps.TopologyContext, c dsps.SpoutCollector) { s.col = c }

func (s *fleetSpout) NextTuple() bool {
	st := s.st
	start := st.start.Load()
	if start == 0 {
		return false
	}
	now := nowNs()
	n := 0
	for st.emitted < len(st.acks) {
		due := fleetDue(start, st.emitted)
		if due > now {
			break
		}
		seq := st.emitted
		st.lags[seq] = nowNs() - due
		s.col.EmitInt64(int64(seq), uint64(seq)+1)
		st.emitted++
		n++
	}
	return n > 0
}

func (s *fleetSpout) AckU64(id uint64) {
	seq := int(id - 1)
	if s.st.acks[seq] != 0 {
		s.st.dups++
		return
	}
	s.st.acks[seq] = nowNs()
	s.st.acked.Add(1)
}

func (s *fleetSpout) FailU64(uint64) { s.st.fails++ }

// fleetTopology is spout → parse (dynamic) → count (fields on the key).
func fleetTopology(st *fleetWorkerState) (*dsps.Topology, *dsps.DynamicGrouping, error) {
	b := dsps.NewTopologyBuilder("fleet")
	b.SetSpout("spout", func() dsps.Spout { return &fleetSpout{st: st} }, 1, "seq")
	parse := b.SetBolt("parse", func() dsps.Bolt {
		return &dsps.BoltFunc{ExecuteFn: func(t *dsps.Tuple, c dsps.OutputCollector) {
			v, _ := t.Int64()
			c.EmitInt64(int64(st.keys[v]))
		}}
	}, fleetParse, "key").WithExecCost(fleetExecCost)
	dg := parse.DynamicGrouping("spout")
	b.SetBolt("count", func() dsps.Bolt {
		counts := make([]int64, ingestNumKeys)
		return &dsps.BoltFunc{ExecuteFn: func(t *dsps.Tuple, _ dsps.OutputCollector) {
			v, _ := t.Int64()
			counts[v]++
		}}
	}, fleetCount).FieldsGrouping("parse", "key")
	topo, err := b.Build()
	return topo, dg, err
}

// fleetWorkerMain is the worker process: it hosts the engine, joins the
// coordinator, starts its schedule when the parent writes "start <ns>" on
// stdin, records a runtime mark on each "mark" line, and on the
// coordinator's shutdown command writes its fleetDump to stdout. It exits
// when stdin closes, so it never outlives the benchmark process.
func fleetWorkerMain(coord string, seed int64) error {
	st := &fleetWorkerState{keys: ingestKeys(seed, fleetMaxRoots)}
	st.acks = make([]int64, fleetMaxRoots)
	st.lags = make([]int64, fleetMaxRoots)
	topo, dg, err := fleetTopology(st)
	if err != nil {
		return err
	}
	eng := dsps.NewCluster(dsps.ClusterConfig{})
	if err := eng.Submit(topo, dsps.SubmitConfig{Workers: fleetParse}); err != nil {
		return err
	}
	defer eng.Shutdown()
	w, err := cluster.NewWorker(cluster.WorkerConfig{
		Name: fleetWorker, Coordinator: coord, Engine: eng, Topology: "fleet",
		Groupings: map[string]*dsps.DynamicGrouping{"parse": dg}, Spouts: []string{"spout"},
	})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		defer cancel()
		sc := bufio.NewScanner(os.Stdin)
		for sc.Scan() {
			cmd, arg, _ := strings.Cut(sc.Text(), " ")
			switch cmd {
			case "start":
				t, err := strconv.ParseInt(arg, 10, 64)
				if err == nil {
					st.start.Store(t)
				}
			case "mark":
				m := runtimeMark{rt: readRuntime(), acked: st.acked.Load()}
				st.mu.Lock()
				st.marks = append(st.marks, m)
				st.mu.Unlock()
			}
		}
	}()
	err = w.Run(ctx)
	if !errors.Is(err, cluster.ErrShutdown) {
		return err
	}
	eng.Shutdown()
	dump := fleetDump{
		Acks: st.acks[:st.emitted], Lags: st.lags[:st.emitted],
		Fails: st.fails, Dups: st.dups, RSSMB: peakRSSMB(),
	}
	st.mu.Lock()
	if len(st.marks) >= 2 {
		a, b := st.marks[0], st.marks[len(st.marks)-1]
		layer := map[string]float64{}
		runtimeLayer(layer, a.rt, b.rt, b.acked-a.acked)
		dump.AllocB, dump.GCFrac = layer["runtime.alloc_b_per_tuple"], layer["runtime.gc_cpu_frac"]
	}
	st.mu.Unlock()
	return json.NewEncoder(os.Stdout).Encode(dump)
}

// ---- benchmark process ----

// callLog records the wall-clock interval of every call through one
// wrapper, tagged with the control step it belongs to (traced pass).
type callLog struct {
	mu    sync.Mutex
	step  int
	calls []stepCall
}

type stepCall struct {
	step       int
	start, end int64
}

func (l *callLog) record(start int64) {
	end := nowNs()
	l.mu.Lock()
	l.calls = append(l.calls, stepCall{l.step, start, end})
	l.mu.Unlock()
}

// timedEngine times RemoteEngine.Snapshot through the core.Engine the
// controller drives, and keeps each snapshot for the dsps ratios.
type timedEngine struct {
	*cluster.RemoteEngine
	log   callLog
	snaps []*dsps.Snapshot
}

func (e *timedEngine) Snapshot() *dsps.Snapshot {
	start := nowNs()
	s := e.RemoteEngine.Snapshot()
	e.log.record(start)
	e.log.mu.Lock()
	e.snaps = append(e.snaps, s)
	e.log.mu.Unlock()
	return s
}

// timedActuator times RemoteGrouping.SetRatios.
type timedActuator struct {
	core.RatioActuator
	log callLog
}

func (a *timedActuator) SetRatios(r []float64) error {
	start := nowNs()
	err := a.RatioActuator.SetRatios(r)
	a.log.record(start)
	return err
}

// timedPredictor times the DRNN's Predict.
type timedPredictor struct {
	timeseries.Predictor
	log *callLog
}

func (p timedPredictor) Predict(s *timeseries.Series, h int) (float64, error) {
	start := nowNs()
	v, err := p.Predictor.Predict(s, h)
	p.log.record(start)
	return v, err
}

// fleet is one running coordinator + worker process + fitted controller.
type fleet struct {
	coord    *cluster.Coordinator
	procs    *cluster.ProcSet
	stdin    *os.File
	out      chan []byte
	eng      *cluster.RemoteEngine
	ctrl     *core.Controller
	tEng     *timedEngine
	tAct     *timedActuator
	predLog  *callLog
	parseWID []string // engine worker id hosting each parse task
	start    int64
	fitS     float64
	once     sync.Once
}

// close kills the worker process (if still running) and stops the
// coordinator; safe to call more than once and from a signal handler.
func (f *fleet) close() {
	f.once.Do(func() {
		f.procs.Close()
		f.stdin.Close()
		f.coord.Close()
	})
}

func (f *fleet) send(line string) error {
	_, err := io.WriteString(f.stdin, line+"\n")
	return err
}

// startFleet is the workload's set-up: coordinator, worker process, join,
// schedule start, warm-up control steps, and the per-worker DRNN fit.
func startFleet(seed int64, traced bool) (*fleet, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	coord, err := cluster.NewCoordinator("127.0.0.1:0", cluster.CoordinatorConfig{})
	if err != nil {
		return nil, err
	}
	inR, inW, err := os.Pipe()
	if err != nil {
		coord.Close()
		return nil, err
	}
	outR, outW, err := os.Pipe()
	if err != nil {
		coord.Close()
		inR.Close()
		inW.Close()
		return nil, err
	}
	f := &fleet{coord: coord, procs: cluster.NewProcSet(), stdin: inW, out: make(chan []byte, 1)}
	onExit(f.close)
	addr := coord.Addr().String()
	f.procs.Add(fleetWorker, func() *exec.Cmd {
		cmd := exec.Command(exe, "--fleet-worker", "--coordinator", addr, "--seed", strconv.FormatInt(seed, 10))
		cmd.Stdin, cmd.Stdout = inR, outW
		// The kernel kills the worker if this process dies first.
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		return cmd
	})
	err = f.procs.Start()
	inR.Close()
	outW.Close()
	go func() {
		b, _ := io.ReadAll(outR)
		outR.Close()
		f.out <- b
	}()
	if err != nil {
		f.close()
		return nil, err
	}
	fail := func(err error) (*fleet, error) {
		f.close()
		return nil, err
	}
	if err := coord.WaitForWorkers(1, 20*time.Second); err != nil {
		return fail(err)
	}
	if f.eng, err = coord.Engine(fleetWorker); err != nil {
		return fail(err)
	}
	for _, ts := range f.eng.Snapshot().ComponentTasks("parse") {
		f.parseWID = append(f.parseWID, ts.WorkerID)
	}
	if len(f.parseWID) != fleetParse {
		return fail(fmt.Errorf("fleet: worker reports %d parse tasks, want %d", len(f.parseWID), fleetParse))
	}

	var eng core.Engine = f.eng
	var act core.RatioActuator = coord.Grouping(fleetWorker, "parse")
	newPred := func() timeseries.Predictor { return drnn.New(fleetModel) }
	if traced {
		f.tEng = &timedEngine{RemoteEngine: f.eng}
		f.tAct = &timedActuator{RatioActuator: act}
		f.predLog = &callLog{}
		eng, act = f.tEng, f.tAct
		newPred = func() timeseries.Predictor { return timedPredictor{drnn.New(fleetModel), f.predLog} }
	}
	f.ctrl, err = core.NewController(eng, []core.ControlTarget{{Component: "parse", Grouping: act}}, core.Config{
		NewPredictor: newPred, MinHistory: fleetHistory, Policy: core.PolicyBypass, ProbeRatio: fleetProbe,
	})
	if err != nil {
		return fail(err)
	}
	f.start = nowNs() + int64(20*time.Millisecond)
	if err := f.send("start " + strconv.FormatInt(f.start, 10)); err != nil {
		return fail(err)
	}
	for i := 0; i <= fleetHistory; i++ {
		sleepUntil(f.start + int64(i+1)*int64(fleetPeriod))
		if _, err := f.ctrl.Step(); err != nil {
			return fail(err)
		}
	}
	t0 := time.Now()
	if err := f.ctrl.FitPredictors(); err != nil {
		return fail(err)
	}
	f.fitS = time.Since(t0).Seconds()
	return f, nil
}

// faultWindow is one injected fault, in wall-clock time.
type faultWindow struct {
	victim        int
	inject, clear int64
	steps         int   // control steps since the injection
	detectSteps   int   // steps until the victim was first flagged
	bypassNs      int64 // injection → first ratio vector leaving the victim only the probe share
}

func runFleet(seed int64, seconds float64, traced bool, spansPath string) (*outcome, error) {
	o := newOutcome()
	totalSteps := max(1, int(seconds*float64(time.Second)/float64(fleetPeriod)))
	cycles := faultCycles(seed, totalSteps, fleetParse)

	setups := fleetSetups
	if traced {
		setups = 1
	}
	var setupS []float64
	var f *fleet
	for i := 0; i < setups; i++ {
		if f != nil {
			f.close()
		}
		t0 := time.Now()
		var err error
		if f, err = startFleet(seed, traced && i == setups-1); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer f.close()
	o.e2e["setup_s"] = median(setupS)

	// Fault schedule in steps: each cycle's fault follows step s and is
	// cleared after step s+FaultSteps.
	type event struct {
		step   int
		inject bool
		victim int
	}
	var events []event
	s := fleetCalmSteps
	for _, c := range cycles {
		if s+c.FaultSteps >= totalSteps {
			break
		}
		events = append(events, event{s, true, c.Victim}, event{s + c.FaultSteps, false, c.Victim})
		s += c.FaultSteps + c.ClearSteps
	}

	// Measured window: totalSteps control steps on a fixed period.
	m0 := nowNs() + int64(fleetPeriod)
	if err := f.send("mark"); err != nil {
		return nil, err
	}
	var faults []faultWindow
	var stepNs []int64
	var stepSpans [][2]int64
	cur := -1 // index of the active fault in faults
	var ev int
	for step := 0; step < totalSteps; step++ {
		tick := m0 + int64(step)*int64(fleetPeriod)
		sleepUntil(tick)
		if traced {
			f.tEng.log.step, f.tAct.log.step, f.predLog.step = step, step, step
		}
		t0 := nowNs()
		rep, err := f.ctrl.Step()
		t1 := nowNs()
		if err != nil {
			return nil, err
		}
		stepNs = append(stepNs, t1-t0)
		stepSpans = append(stepSpans, [2]int64{t0, t1})
		if cur >= 0 {
			// The step's ratios are applied just before Step returns.
			w := &faults[cur]
			w.steps++
			if w.detectSteps == 0 && rep.Misbehaving[f.parseWID[w.victim]] {
				w.detectSteps = w.steps
			}
			if r := rep.Applied["parse"]; w.bypassNs == 0 && len(r) == fleetParse && r[w.victim] <= fleetProbe+1e-9 {
				w.bypassNs = t1 - w.inject
			}
		}
		for ev < len(events) && events[ev].step == step {
			e := events[ev]
			ev++
			sleepUntil(tick + int64(fleetFaultPhase))
			wid := f.parseWID[e.victim]
			if e.inject {
				if err := f.eng.InjectFault(wid, dsps.Fault{Slowdown: fleetSlowdown}); err != nil {
					return nil, err
				}
				faults = append(faults, faultWindow{victim: e.victim, inject: nowNs()})
				cur = len(faults) - 1
				continue
			}
			if err := f.eng.ClearFault(wid); err != nil {
				return nil, err
			}
			faults[cur].clear = nowNs()
			cur = -1
		}
	}
	m1 := m0 + int64(totalSteps)*int64(fleetPeriod)
	sleepUntil(m1)
	if err := f.send("mark"); err != nil {
		return nil, err
	}
	if cur >= 0 {
		faults[cur].clear = m1
	}
	return finishFleet(o, f, faults, m0, m1, stepNs, stepSpans, traced, spansPath)
}

// finishFleet runs the correctness checks, collects the worker's raw
// samples and turns them into metrics.
func finishFleet(o *outcome, f *fleet, faults []faultWindow, m0, m1 int64, stepNs []int64, stepSpans [][2]int64, traced bool, spansPath string) (*outcome, error) {
	// Correctness: the worker clears faults, pauses its spout, drains, and
	// checks tuple conservation and acker quiescence in-process.
	drained, violations, err := f.coord.CheckInvariants(fleetWorker, 20*time.Second, false)
	if err != nil {
		return nil, err
	}
	if !drained {
		o.fail(0, "worker did not drain")
	}
	for _, v := range violations {
		o.fail(0, "invariant: %s", v)
	}
	f.coord.ShutdownWorkers()
	var raw []byte
	select {
	case raw = <-f.out:
	case <-time.After(30 * time.Second):
		return nil, fmt.Errorf("fleet: worker sent no samples")
	}
	if err := f.procs.WaitExit(0, 10*time.Second); err != nil {
		o.fail(0, "worker process did not exit: %v", err)
	}
	waitFor(func() bool { return f.coord.Stats().Live == 0 }, 5*time.Second)
	if st := f.coord.Stats(); st.Joins != st.Leaves+st.Live || st.Live != 0 {
		o.fail(0, "membership: joins=%d leaves=%d live=%d", st.Joins, st.Leaves, st.Live)
	}
	var dump fleetDump
	if err := json.Unmarshal(raw, &dump); err != nil {
		return nil, fmt.Errorf("fleet: worker samples: %w", err)
	}
	if dump.Dups > 0 {
		o.fail(dump.Dups, "%d duplicate acks", dump.Dups)
	}

	// Roots due inside the measured window: "high" are those due while a
	// fault was active, "low" those whose whole life (due → ack) saw no
	// fault. Roots due before an injection but caught by it are in
	// neither latency set.
	faultAt := func(t int64) int {
		for i, w := range faults {
			if t >= w.inject && t < w.clear {
				return i
			}
		}
		return -1
	}
	faultDuring := func(from, to int64) bool {
		for _, w := range faults {
			if from < w.clear && to >= w.inject {
				return true
			}
		}
		return false
	}
	var low, lags []int64
	high := make([][]int64, len(faults))
	var acked, firstAck, lastAck int64
	for _, at := range dump.Acks {
		if at >= m0 && at < m1 {
			acked++
			if firstAck == 0 || at < firstAck {
				firstAck = at
			}
			lastAck = max(lastAck, at)
		}
	}
	for seq := range dump.Acks {
		due := fleetDue(f.start, seq)
		if due < m0 || due >= m1 {
			continue
		}
		o.attempted++
		lags = append(lags, dump.Lags[seq])
		if dump.Acks[seq] == 0 {
			o.failed++
			continue
		}
		switch i := faultAt(due); {
		case i >= 0:
			high[i] = append(high[i], dump.Acks[seq]-due)
		case !faultDuring(due, dump.Acks[seq]):
			low = append(low, dump.Acks[seq]-due)
		}
	}
	if o.failed > 0 {
		o.note("%d of %d roots in the window were never acked (worker counted %d failed roots in all)", o.failed, o.attempted, dump.Fails)
	}
	o.latencies("low", low)
	// Each fault cycle is one p99 window: its roots stuck behind the
	// victim before the bypass are what the tail measures.
	o.windowedLatencies("high", high)
	// Throughput is the rate of the acks that arrived inside the window,
	// whatever their due time, between the first and the last of them.
	if acked > 1 {
		o.e2e["acked_tps"] = float64(acked-1) / (float64(lastAck-firstAck) / 1e9)
	}
	o.e2e["max_rss_mb"] = dump.RSSMB
	var bypass, detect []float64
	for _, w := range faults {
		if w.bypassNs > 0 {
			bypass = append(bypass, float64(w.bypassNs)/1e6)
			detect = append(detect, float64(w.detectSteps))
		}
	}
	o.note("%d fault cycles, %d bypassed; bypass_ms median %.1f; worker peak RSS %.1f MiB",
		len(faults), len(bypass), median(bypass), dump.RSSMB)
	if !traced {
		return o, nil
	}

	o.layer["core.bypass_ms"] = median(bypass)
	o.layer["core.detect_steps"] = median(detect)
	o.layer["core.step_ms"] = meanNs(stepNs) / 1e6
	o.layer["drnn.fit_s"] = f.fitS
	o.layer["runtime.alloc_b_per_tuple"] = dump.AllocB
	o.layer["runtime.gc_cpu_frac"] = dump.GCFrac
	o.layer["workload.gen_lag_p99_ms"] = quantile(lags, 0.99) / 1e6
	inWindow := func(l *callLog) []stepCall {
		var out []stepCall
		for _, c := range l.calls {
			if c.start >= m0 && c.end <= m1+int64(time.Second) {
				out = append(out, c)
			}
		}
		return out
	}
	snapCalls, setCalls, predCalls := inWindow(&f.tEng.log), inWindow(&f.tAct.log), inWindow(f.predLog)
	o.layer["cluster.snapshot_rpc_ms"] = meanCall(snapCalls) / 1e6
	o.layer["cluster.setratios_rpc_ms"] = meanCall(setCalls) / 1e6
	o.layer["drnn.predict_us"] = meanCall(predCalls) / 1e3

	// dsps ratios between consecutive control-step snapshots, by whether a
	// fault was active over the interval.
	var lowA, lowB, highA, highB planeTotals
	snaps := f.tEng.snaps
	for i := 1; i < len(snaps); i++ {
		a, b := snaps[i-1], snaps[i]
		if a.At.UnixNano() < m0 || b.At.UnixNano() > m1 {
			continue
		}
		ta, tb := totalsOf(a), totalsOf(b)
		mid := (a.At.UnixNano() + b.At.UnixNano()) / 2
		if faultAt(mid) >= 0 {
			highA, highB = addTotals(highA, ta), addTotals(highB, tb)
		} else {
			lowA, lowB = addTotals(lowA, ta), addTotals(lowB, tb)
		}
	}
	planeLayer(o.layer, ".low", lowA, lowB)
	planeLayer(o.layer, ".high", highA, highB)
	if len(snaps) > 0 {
		o.layer["dsps.key_skew"] = keySkew(snaps[len(snaps)-1])
	}

	// Spans: one request per control step.
	var log spanLog
	byStep := func(calls []stepCall) map[int][]stepCall {
		m := map[int][]stepCall{}
		for _, c := range calls {
			m[c.step] = append(m[c.step], c)
		}
		return m
	}
	snapBy, setBy, predBy := byStep(snapCalls), byStep(setCalls), byStep(predCalls)
	for step, sp := range stepSpans {
		req := int64(step)
		root := log.add(0, req, "core.step", sp[0], sp[1])
		for _, c := range snapBy[step] {
			log.add(root, req, "cluster.snapshot_rpc", c.start, c.end)
		}
		for _, c := range predBy[step] {
			log.add(root, req, "drnn.predict", c.start, c.end)
		}
		for _, c := range setBy[step] {
			log.add(root, req, "cluster.setratios_rpc", c.start, c.end)
		}
	}
	layerSelfTimes(o.layer, &log)
	if err := log.write(spansPath, m0); err != nil {
		o.note("span file not written: %v", err)
	} else {
		o.note("spans: %d in %s", len(log.spans), spansPath)
	}
	return o, nil
}

func addTotals(a, b planeTotals) planeTotals {
	return planeTotals{a.emitted + b.emitted, a.batches + b.batches, a.bpWaits + b.bpWaits, a.executed + b.executed, a.queueNs + b.queueNs}
}

func meanNs(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	return sum / float64(len(xs))
}

func meanCall(calls []stepCall) float64 {
	xs := make([]int64, len(calls))
	for i, c := range calls {
		xs[i] = c.end - c.start
	}
	return meanNs(xs)
}
