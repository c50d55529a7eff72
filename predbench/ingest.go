package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"predstream/internal/dsps"
)

// The ingest workload: spout(1) → parse(2, dynamic grouping with a fixed
// uneven split) → count(2, fields grouping on a Zipf-skewed int64 key) on a
// local engine with default configuration. A saturating phase measures
// capacity; two constant-rate open-loop phases measure latency. See
// predbench/README.md for the calibration of the frozen rates.
const (
	ingestNumKeys = 1024
	ingestZipfS   = 1.1
	// ingestLowRate and ingestHighRate are the open-loop phases' arrival
	// rates in roots/s, frozen so later commits are measured at the same
	// load: about a quarter and three-eighths of the acked_tps measured at
	// the commit that introduced this benchmark on a quiet host.
	ingestLowRate  = 200000
	ingestHighRate = 300000
	// ingestSatCapRate sizes the saturating phase's key schedule: the
	// phase stops early (and says so) if the engine ever acks faster.
	ingestSatCapRate = 1500000
	ingestWarmRoots  = 20000
	// ingestEngines is how many fresh engines are set up and saturated in
	// turn; the last one also runs the open-loop phases.
	ingestEngines = 5
	// ingestSatShare is the share of --seconds given to the saturating
	// phase, split evenly over the engines; the two open-loop phases split
	// the rest evenly.
	ingestSatShare = 0.25
	// ingestTraceEvery picks the traced keys: key k is traced when
	// k%ingestTraceEvery == ingestTraceKey (under 1% of the traffic).
	ingestTraceEvery = 64
	ingestTraceKey   = 37
	// satRateEvery is the interval of the saturating phase's ack-rate
	// samples.
	satRateEvery = int64(100 * time.Millisecond)
	// backlogEvery is the open-loop backlog sampling interval.
	backlogEvery = int64(50 * time.Millisecond)
)

// parseSplit is the fixed uneven ratio vector of the spout→parse dynamic
// grouping.
var parseSplit = []float64{0.7, 0.3}

const (
	phaseIdle int32 = iota
	phaseWarm
	phaseSat
	phaseGap
	phaseLow // phaseLow+i runs ingestRun.open[i]
	phaseHigh
)

// openPhase is one constant-rate open-loop phase over the seqs [base,
// base+n).
type openPhase struct {
	name    string
	base, n int
	rate    int64
	start   atomic.Int64
	acked   atomic.Int64
	lat     []int64 // due → AckU64 per root; written on the spout goroutine
	lag     []int64 // emit − due per root (traced pass)
}

func (p *openPhase) due(k int) int64 { return p.start.Load() + int64(k)*1e9/p.rate }

// ingestRun is the state one engine instance's spout and bolts share with
// the driving goroutine. The seq space is [0, warm) warm-up roots,
// [satBase, satBase+satCap) saturating roots, then each open-loop phase's
// roots; a root's msgID is seq+1.
type ingestRun struct {
	keys           []uint16 // seq → key, read-only
	warm, satBase  int
	satCap         int
	open           [2]*openPhase
	phase          atomic.Int32
	satEnd         atomic.Int64
	emitted, acked atomic.Int64

	// Written only on the spout goroutine; read after the engine stops.
	ackedBits     []uint64
	dups, fails   int64
	satEmitted    int
	satCapHit     bool
	emitNs, emits int64 // time inside EmitInt64 (traced pass)

	// counts[i][k] is count task i's total for key k; each row is written
	// only by its task.
	counts [2][]int64
	tr     *ingestTrace
}

// ingestSlot holds one traced root's timestamps. Each field is written by
// exactly one goroutine (spout, parse task or count task).
type ingestSlot struct {
	due, emitStart, emitEnd                int64
	parseStart, pEmitStart, pEmitEnd, pEnd int64
	countStart, countEnd, ack              int64
}

// ingestTrace is the traced pass's bookkeeping: traced roots are those
// whose key is traced, so every tuple of a traced key passes through the
// per-(parse task, key) FIFOs that let a count task recover the seq of the
// tuple it executes (tuples of one key from one parse task reach their
// count task in emit order).
type ingestTrace struct {
	seqs       []int32 // sorted seqs of traced roots; index = slot
	slots      []ingestSlot
	parseIndex [1024]atomic.Int32 // engine task id → parse task index+1
	mu         [2]sync.Mutex
	fifo       [2][ingestNumKeys][]int32
}

func tracedKey(k uint16) bool { return int(k)%ingestTraceEvery == ingestTraceKey }

func (tr *ingestTrace) slot(seq int) *ingestSlot {
	i, ok := slices.BinarySearch(tr.seqs, int32(seq))
	if !ok {
		return nil
	}
	return &tr.slots[i]
}

func newIngestRun(keys []uint16, satCap int, open [2]*openPhase, traced bool) *ingestRun {
	r := &ingestRun{keys: keys, warm: ingestWarmRoots, satBase: ingestWarmRoots, satCap: satCap, open: open}
	r.ackedBits = make([]uint64, (len(keys)+63)/64)
	for i := range r.counts {
		r.counts[i] = make([]int64, ingestNumKeys)
	}
	if traced {
		tr := &ingestTrace{}
		for seq, k := range keys {
			if tracedKey(k) {
				tr.seqs = append(tr.seqs, int32(seq))
			}
		}
		tr.slots = make([]ingestSlot, len(tr.seqs))
		r.tr = tr
	}
	return r
}

// phaseOf returns the open-loop phase seq belongs to, or nil.
func (r *ingestRun) phaseOf(seq int) *openPhase {
	for _, p := range r.open {
		if seq >= p.base && seq < p.base+p.n {
			return p
		}
	}
	return nil
}

// ingestSpout replays the schedule. It emits one root per NextTuple in the
// warm-up and saturating phases (so MaxSpoutPending closes the loop) and
// every due root in an open-loop phase.
type ingestSpout struct {
	dsps.BaseSpout
	r      *ingestRun
	col    dsps.SpoutCollector
	phase  int32
	cursor int
}

func (s *ingestSpout) Open(_ dsps.TopologyContext, c dsps.SpoutCollector) { s.col = c }

// emit sends root seq; on the traced pass it times the call and returns
// when it started.
func (s *ingestSpout) emit(seq int, due int64) int64 {
	r := s.r
	r.emitted.Add(1)
	if r.tr == nil {
		s.col.EmitInt64(int64(seq), uint64(seq)+1)
		return 0
	}
	t0 := nowNs()
	s.col.EmitInt64(int64(seq), uint64(seq)+1)
	t1 := nowNs()
	r.emitNs += t1 - t0
	r.emits++
	if due == 0 {
		due = t0 // a root outside the open-loop phases is due when emitted
	}
	if tracedKey(r.keys[seq]) {
		if sl := r.tr.slot(seq); sl != nil {
			sl.due, sl.emitStart, sl.emitEnd = due, t0, t1
		}
	}
	return t0
}

func (s *ingestSpout) NextTuple() bool {
	r := s.r
	ph := r.phase.Load()
	if ph != s.phase {
		s.phase = ph
		switch ph {
		case phaseSat:
			s.cursor = r.satBase
		case phaseLow, phaseHigh:
			s.cursor = r.open[ph-phaseLow].base
		}
	}
	switch ph {
	case phaseWarm:
		if s.cursor >= r.warm {
			return false
		}
		s.emit(s.cursor, 0)
		s.cursor++
		return true
	case phaseSat:
		if s.cursor >= r.satBase+r.satCap {
			r.satCapHit = true
			return false
		}
		if (s.cursor-r.satBase)%64 == 0 && nowNs() >= r.satEnd.Load() {
			return false
		}
		s.emit(s.cursor, 0)
		s.cursor++
		r.satEmitted = s.cursor - r.satBase
		return true
	case phaseLow, phaseHigh:
		p := r.open[ph-phaseLow]
		now := nowNs()
		n := 0
		for n < 64 && s.cursor < p.base+p.n {
			k := s.cursor - p.base
			due := p.due(k)
			if due > now {
				break
			}
			if t0 := s.emit(s.cursor, due); p.lag != nil {
				p.lag[k] = t0 - due
			}
			s.cursor++
			n++
		}
		return n > 0
	}
	return false
}

func (s *ingestSpout) AckU64(id uint64) {
	r := s.r
	seq := int(id - 1)
	w, bit := seq/64, uint64(1)<<(seq%64)
	if r.ackedBits[w]&bit != 0 {
		r.dups++
		return
	}
	r.ackedBits[w] |= bit
	r.acked.Add(1)
	p := r.phaseOf(seq)
	if p == nil && r.tr == nil {
		return
	}
	now := nowNs()
	if p != nil {
		k := seq - p.base
		p.lat[k] = now - p.due(k)
		p.acked.Add(1)
	}
	if r.tr != nil && tracedKey(r.keys[seq]) {
		if sl := r.tr.slot(seq); sl != nil {
			sl.ack = now
		}
	}
}

func (s *ingestSpout) FailU64(uint64) {
	s.r.fails++
	s.r.acked.Add(1)
}

// parseBolt maps a root's seq to its key, the workload's "parse" step.
type parseBolt struct {
	dsps.BaseBolt
	r     *ingestRun
	col   dsps.OutputCollector
	index int
}

func (b *parseBolt) Prepare(ctx dsps.TopologyContext, c dsps.OutputCollector) {
	b.col, b.index = c, ctx.TaskIndex
	if tr := b.r.tr; tr != nil && ctx.TaskID < len(tr.parseIndex) {
		tr.parseIndex[ctx.TaskID].Store(int32(ctx.TaskIndex + 1))
	}
}

func (b *parseBolt) Execute(t *dsps.Tuple) {
	v, _ := t.Int64()
	key := b.r.keys[v]
	if tr := b.r.tr; tr != nil && tracedKey(key) {
		t0 := nowNs()
		tr.mu[b.index].Lock()
		tr.fifo[b.index][key] = append(tr.fifo[b.index][key], int32(v))
		tr.mu[b.index].Unlock()
		sl := tr.slot(int(v))
		t1 := nowNs()
		b.col.EmitInt64(int64(key))
		t2 := nowNs()
		if sl != nil {
			sl.parseStart, sl.pEmitStart, sl.pEmitEnd, sl.pEnd = t0, t1, t2, nowNs()
		}
		return
	}
	b.col.EmitInt64(int64(key))
}

// countBolt totals keys; FieldsGrouping gives each key exactly one task.
type countBolt struct {
	dsps.BaseBolt
	r     *ingestRun
	index int
}

func (b *countBolt) Prepare(ctx dsps.TopologyContext, _ dsps.OutputCollector) {
	b.index = ctx.TaskIndex
}

func (b *countBolt) Execute(t *dsps.Tuple) {
	v, _ := t.Int64()
	b.r.counts[b.index][v]++
	tr := b.r.tr
	if tr == nil || !tracedKey(uint16(v)) {
		return
	}
	t0 := nowNs()
	if t.SourceTask >= len(tr.parseIndex) {
		return
	}
	src := int(tr.parseIndex[t.SourceTask].Load()) - 1
	if src < 0 {
		return
	}
	tr.mu[src].Lock()
	q := tr.fifo[src][v]
	seq := int32(-1)
	if len(q) > 0 {
		seq, tr.fifo[src][v] = q[0], q[1:]
	}
	tr.mu[src].Unlock()
	if seq < 0 {
		return
	}
	if sl := tr.slot(int(seq)); sl != nil {
		sl.countStart, sl.countEnd = t0, nowNs()
	}
}

// startIngest builds and submits the topology on a fresh default engine
// and runs the warm-up roots to completion.
func startIngest(r *ingestRun) (*dsps.Cluster, error) {
	b := dsps.NewTopologyBuilder("ingest")
	b.SetSpout("spout", func() dsps.Spout { return &ingestSpout{r: r} }, 1, "seq")
	dg := b.SetBolt("parse", func() dsps.Bolt { return &parseBolt{r: r} }, 2, "key").DynamicGrouping("spout")
	if err := dg.SetRatios(parseSplit); err != nil {
		return nil, err
	}
	b.SetBolt("count", func() dsps.Bolt { return &countBolt{r: r} }, 2).FieldsGrouping("parse", "key")
	topo, err := b.Build()
	if err != nil {
		return nil, err
	}
	c := dsps.NewCluster(dsps.ClusterConfig{})
	if err := c.Submit(topo, dsps.SubmitConfig{}); err != nil {
		return nil, err
	}
	r.phase.Store(phaseWarm)
	deadline := time.Now().Add(30 * time.Second)
	for r.acked.Load() < int64(r.warm) {
		if time.Now().After(deadline) {
			c.Shutdown()
			return nil, fmt.Errorf("ingest: warm-up did not complete")
		}
		time.Sleep(200 * time.Microsecond)
	}
	return c, nil
}

// planeTotals sums the data-plane counters the dsps.* ratios are deltas of.
type planeTotals struct {
	emitted, batches, bpWaits, executed int64
	queueNs                             int64
}

func totalsOf(s *dsps.Snapshot) planeTotals {
	var t planeTotals
	for _, ts := range s.Tasks {
		t.emitted += ts.Emitted
		t.batches += ts.Batches
		t.bpWaits += ts.BackpressureWaits
		if !ts.IsSpout {
			t.executed += ts.Executed
			t.queueNs += int64(ts.QueueLatency)
		}
	}
	return t
}

// planeLayer records the dsps ratio metrics between two totals under the
// given phase suffix.
func planeLayer(layer map[string]float64, suffix string, a, b planeTotals) {
	if db := b.batches - a.batches; db > 0 {
		layer["dsps.tuples_per_batch"+suffix] = float64(b.emitted-a.emitted) / float64(db)
		layer["dsps.backpressure_frac"+suffix] = float64(b.bpWaits-a.bpWaits) / float64(db)
	}
	if de := b.executed - a.executed; de > 0 {
		layer["dsps.queue_wait_us"+suffix] = float64(b.queueNs-a.queueNs) / float64(de) / 1e3
	}
}

func runIngest(seed int64, seconds float64, traced bool, spansPath string) (*outcome, error) {
	o := newOutcome()
	satDur := int64(seconds * ingestSatShare * 1e9)
	segDur := satDur / ingestEngines
	openDur := (int64(seconds*1e9) - satDur) / 2
	satCap := int(ingestSatCapRate * segDur / 1e9)
	var open [2]*openPhase
	base := ingestWarmRoots + satCap
	for i, pr := range []struct {
		name string
		rate int64
	}{{"low", ingestLowRate}, {"high", ingestHighRate}} {
		n := int(pr.rate * openDur / 1e9)
		open[i] = &openPhase{name: pr.name, base: base, n: n, rate: pr.rate}
		base += n
	}
	keys := ingestKeys(seed, base)

	// Set-up and saturating phase, one engine after another: start a
	// fresh engine and run the warm-up roots (set-up), then saturate it
	// for its share of the phase. Capacity differs by a tenth or more
	// between engine instances in one process, with how the runtime
	// happens to place their goroutines, so acked_tps is the median over
	// the engines. The last engine goes on to the open-loop phases; the
	// others are drained, stopped and checked.
	var setups, caps []float64
	var r *ingestRun
	var c *dsps.Cluster
	var sat satBurst
	satRoots, capHit := 0, false
	for i := 0; i < ingestEngines; i++ {
		last := i == ingestEngines-1
		r = newIngestRun(keys, satCap, open, traced && last)
		t0 := time.Now()
		var err error
		if c, err = startIngest(r); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		sat = saturate(o, c, r, segDur)
		caps = append(caps, sat.rate)
		satRoots += r.satEmitted
		capHit = capHit || r.satCapHit
		if !last {
			c.Shutdown()
			checkIngest(o, r, keys, [][2]int{{0, r.warm}, {r.satBase, r.satBase + r.satEmitted}})
		}
	}
	defer c.Shutdown()
	o.e2e["setup_s"] = median(setups)
	o.e2e["acked_tps"] = median(caps)
	for _, p := range open {
		p.lat = prefault(make([]int64, p.n))
		if traced {
			p.lag = prefault(make([]int64, p.n))
		}
	}

	// Open-loop phases at the frozen constant rates. The backlog (due
	// minus acked) is sampled to check it does not grow.
	var openSnaps [2][2]planeTotals
	var backlogs [2][]int64
	for i, p := range open {
		runtime.GC()
		openSnaps[i][0] = totalsOf(c.Snapshot())
		start := nowNs() + int64(5*time.Millisecond)
		p.start.Store(start)
		r.phase.Store(phaseLow + int32(i))
		for t := start + backlogEvery; t < start+openDur; t += backlogEvery {
			sleepUntil(t)
			due := min(int64(p.n), (nowNs()-start)*p.rate/1e9+1)
			backlogs[i] = append(backlogs[i], due-p.acked.Load())
		}
		if !waitFor(func() bool { return p.acked.Load() >= int64(p.n) }, 30*time.Second) {
			o.note("%s phase did not complete: %d of %d acked", p.name, p.acked.Load(), p.n)
		}
		openSnaps[i][1] = totalsOf(c.Snapshot())
		r.phase.Store(phaseGap)
	}
	final := c.Snapshot()
	c.Shutdown()

	// Everything the spout and bolts wrote is now safe to read.
	if capHit {
		o.note("saturating phase hit its schedule cap of %d roots", satCap)
	}
	o.e2e["max_rss_mb"] = peakRSSMB()
	o.note("acked_tps=%.0f (median over %d engines %.0f, each the median of its 100ms intervals); saturating roots=%d", o.e2e["acked_tps"], len(caps), caps, satRoots)
	emitted := [][2]int{{0, r.warm}, {r.satBase, r.satBase + r.satEmitted}}
	for i, p := range open {
		o.note("%s phase: %d roots at %d/s", p.name, p.n, p.rate)
		// A root never acked keeps latency 0; the bitmap check counts it.
		o.latencies(p.name, slices.DeleteFunc(slices.Clone(p.lat), func(ns int64) bool { return ns == 0 }))
		emitted = append(emitted, [2]int{p.base, p.base + p.n})
		if g := backlogGrowth(backlogs[i]); g > p.rate/20 {
			o.fail(g, "%s phase backlog grew by %d roots", p.name, g)
		}
	}

	checkIngest(o, r, keys, emitted)

	if traced {
		planeLayer(o.layer, ".sat", sat.snap0, sat.snap1)
		planeLayer(o.layer, ".low", openSnaps[0][0], openSnaps[0][1])
		planeLayer(o.layer, ".high", openSnaps[1][0], openSnaps[1][1])
		runtimeLayer(o.layer, sat.rt0, sat.rt1, sat.acked)
		if r.emits > 0 {
			o.layer["dsps.emit_ns"] = float64(r.emitNs) / float64(r.emits)
		}
		o.layer["dsps.key_skew"] = keySkew(final)
		o.layer["workload.gen_lag_p99_ms"] = quantile(append(slices.Clone(open[0].lag), open[1].lag...), 0.99) / 1e6
		ingestSpans(o, r, spansPath)
	}
	return o, nil
}

// satBurst is what one engine's saturating burst measured.
type satBurst struct {
	rate         float64 // median of the 100ms ack rates
	acked        int64   // roots acked over those intervals
	snap0, snap1 planeTotals
	rt0, rt1     runtimeStats
}

// saturate runs one engine's saturating burst of dur nanoseconds: the
// spout emits one root per NextTuple with no pacing. The rate is the
// median of the ack rates of consecutive 100ms intervals after a 10% ramp,
// so one stall does not set it. The burst is drained before it returns.
func saturate(o *outcome, c *dsps.Cluster, r *ingestRun, dur int64) satBurst {
	var b satBurst
	runtime.GC()
	b.snap0 = totalsOf(c.Snapshot())
	start := nowNs()
	r.satEnd.Store(start + dur)
	r.phase.Store(phaseSat)
	sleepUntil(start + dur/10)
	a0, t0 := r.acked.Load(), nowNs()
	first := a0
	b.rt0 = readRuntime()
	var rates []float64
	for next := t0 + satRateEvery; next <= start+dur; next += satRateEvery {
		sleepUntil(next)
		a1, t1 := r.acked.Load(), nowNs()
		rates = append(rates, float64(a1-a0)/(float64(t1-t0)/1e9))
		a0, t0 = a1, t1
	}
	b.rate, b.acked = median(rates), a0-first
	b.snap1, b.rt1 = totalsOf(c.Snapshot()), readRuntime()
	r.phase.Store(phaseGap)
	if !waitFor(func() bool { return r.acked.Load() >= r.emitted.Load() }, 30*time.Second) {
		o.note("saturating phase did not drain: %d of %d roots completed", r.acked.Load(), r.emitted.Load())
	}
	return b
}

// checkIngest checks one engine's run, which emitted the seq ranges
// given: each root acked exactly once, and per-key totals equal to the
// schedule's reference counts.
func checkIngest(o *outcome, r *ingestRun, keys []uint16, emitted [][2]int) {
	var lost int64
	ref := make([]int64, ingestNumKeys)
	for _, rg := range emitted {
		o.attempted += int64(rg[1] - rg[0])
		for seq := rg[0]; seq < rg[1]; seq++ {
			if r.ackedBits[seq/64]&(1<<(seq%64)) == 0 {
				lost++
			}
		}
		for k, n := range referenceCounts(keys[rg[0]:rg[1]], ingestNumKeys) {
			ref[k] += n
		}
	}
	if lost > 0 {
		o.fail(lost, "%d roots never acked (%d failed)", lost, r.fails)
	}
	if r.dups > 0 {
		o.fail(r.dups, "%d duplicate acks", r.dups)
	}
	var off int64
	for k := range ref {
		off += abs64(r.counts[0][k] + r.counts[1][k] - ref[k])
	}
	if off > 0 {
		o.fail(off, "per-key totals differ from the reference by %d tuples", off)
	}
}

// keySkew is the busiest count task's share of count executions.
func keySkew(s *dsps.Snapshot) float64 {
	var total, hottest int64
	for _, ts := range s.ComponentTasks("count") {
		total += ts.Executed
		hottest = max(hottest, ts.Executed)
	}
	if total == 0 {
		return 0
	}
	return float64(hottest) / float64(total)
}

// backlogGrowth compares the mean backlog of the last third of the
// samples with that of the first third.
func backlogGrowth(samples []int64) int64 {
	n := len(samples) / 3
	if n == 0 {
		return 0
	}
	var first, last int64
	for i := 0; i < n; i++ {
		first += samples[i]
		last += samples[len(samples)-1-i]
	}
	return (last - first) / int64(n)
}

// ingestSpans turns the traced roots of the low open-loop phase into spans
// and the per-hop means.
func ingestSpans(o *outcome, r *ingestRun, path string) {
	var log spanLog
	var handoff, hop, ack, n float64
	low := r.open[0]
	for i, seq := range r.tr.seqs {
		sl := &r.tr.slots[i]
		if r.phaseOf(int(seq)) != low || sl.ack == 0 || sl.countEnd == 0 || sl.parseStart == 0 {
			continue
		}
		req := int64(seq)
		root := log.add(0, req, "workload.request", sl.due, sl.ack)
		log.add(root, req, "workload.gen_lag", sl.due, sl.emitStart)
		log.add(root, req, "dsps.emit", sl.emitStart, sl.emitEnd)
		log.add(root, req, "dsps.handoff", sl.emitEnd, sl.parseStart)
		parse := log.add(root, req, "app.parse", sl.parseStart, sl.pEnd)
		log.add(parse, req, "dsps.emit", sl.pEmitStart, sl.pEmitEnd)
		log.add(root, req, "dsps.fields_hop", sl.pEmitEnd, sl.countStart)
		log.add(root, req, "app.count", sl.countStart, sl.countEnd)
		log.add(root, req, "dsps.ack", sl.countEnd, sl.ack)
		handoff += float64(sl.parseStart - sl.emitEnd)
		hop += float64(sl.countStart - sl.pEmitEnd)
		ack += float64(sl.ack - sl.countEnd)
		n++
	}
	if n > 0 {
		o.layer["dsps.handoff_us"] = handoff / n / 1e3
		o.layer["dsps.fields_hop_us"] = hop / n / 1e3
		o.layer["dsps.ack_us"] = ack / n / 1e3
	}
	layerSelfTimes(o.layer, &log)
	if err := log.write(path, low.start.Load()); err != nil {
		o.note("span file not written: %v", err)
	} else {
		o.note("spans: %d traced roots, %d spans in %s", int(n), len(log.spans), path)
	}
}

// prefault writes every page of xs so the measured phases do not pay the
// first-touch page faults of the sample arrays.
func prefault(xs []int64) []int64 {
	for i := 0; i < len(xs); i += 512 {
		xs[i] = 0
	}
	return xs
}

func waitFor(cond func() bool, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
