package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"predstream/internal/drnn"
	"predstream/internal/serve"
	"predstream/internal/telemetry"
	"predstream/internal/timeseries"
	"predstream/internal/trace"
)

// The serve-open workload: a DRNN trained in set-up serves float64
// predictions through a default serve.Coalescer; seeded Poisson arrivals
// call Coalescer.Predict in a low-rate and a high-rate phase.
const (
	// serveLowRate keeps batches near one request, so flush-wait
	// dominates latency.
	serveLowRate = 500
	// serveHighRate is about half of one core's batched forward capacity
	// at the commit that introduced this benchmark, so batches are mostly
	// full and the forward pass dominates.
	serveHighRate = 2000
	// serveLowShare is the share of --seconds given to the low phase.
	serveLowShare = 0.6
	serveSetups   = 3
	// serveWindowQ is the quantile over the 100-request windows' p99s
	// reported as a phase's p99: the lowest decile. Host CPU steal only
	// ever adds latency, and on this workload it reaches most windows. On
	// a 2-vCPU VM with 6 % of each CPU taken in 3 ms bursts by a
	// higher-priority process (simulated steal), the median window's p99
	// rose by a fifth to a third over a quiet run and the lowest decile's
	// by a tenth at most; a change that slows most requests still moves
	// it.
	serveWindowQ = 0.1
	// serveModelSeed fixes the trained model across runs; the run seed
	// only picks arrivals and windows.
	serveModelSeed  = 1
	serveTrainSteps = 300
	servePoolSteps  = 120
)

var serveModel = drnn.Config{Window: 10, Hidden: []int{32, 32}, DenseHidden: []int{16}, Epochs: 4, Seed: serveModelSeed}

// forwardFlops is the multiply-add count of one window's forward pass,
// computed from the layer shapes (2 FLOPs per multiply-add): every LSTM
// layer runs four gates over [input, hidden] at each step, and the dense
// head runs once on the last hidden state. Element-wise work is left out.
func forwardFlops(cfg drnn.Config, features int) float64 {
	var flops float64
	in := features
	for _, h := range cfg.Hidden {
		flops += float64(cfg.Window) * 2 * 4 * float64(h) * float64(in+h)
		in = h
	}
	for _, d := range cfg.DenseHidden {
		flops += 2 * float64(in) * float64(d)
		in = d
	}
	return flops + 2*float64(in)
}

// fitServeModel trains the serving model on a fixed synthetic trace.
func fitServeModel() (*drnn.Inference, float64, error) {
	traces := trace.Synthetic(trace.SyntheticConfig{Steps: serveTrainSteps, Seed: serveModelSeed})
	series := telemetry.ToSeries(traces["worker-0"], telemetry.TargetProcTime, telemetry.FeatureConfig{Interference: true})
	p := drnn.New(serveModel)
	t0 := time.Now()
	if err := p.Fit(series); err != nil {
		return nil, 0, err
	}
	fit := time.Since(t0).Seconds()
	inf, err := p.Inference(false)
	return inf, fit, err
}

// servePool draws the request windows from a synthetic trace generated
// with the run seed.
func servePool(seed int64) ([][][]float64, error) {
	traces := trace.Synthetic(trace.SyntheticConfig{Steps: servePoolSteps, Seed: seed})
	var pool [][][]float64
	for w := 0; w < len(traces); w++ {
		series := telemetry.ToSeries(traces[fmt.Sprintf("worker-%d", w)], telemetry.TargetProcTime, telemetry.FeatureConfig{Interference: true})
		wins, _, err := timeseries.Window(series, serveModel.Window, 1)
		if err != nil {
			return nil, err
		}
		pool = append(pool, wins...)
	}
	return pool, nil
}

// serveSchedule is both phases' arrivals, drawn from the seed alone.
func serveSchedule(seed int64, seconds float64, poolSize int) (low, high []serveArrival) {
	r := newRand(seed, streamServe)
	lowDur := int64(seconds * serveLowShare * 1e9)
	highDur := int64(seconds*1e9) - lowDur
	return poissonArrivals(r, serveLowRate, lowDur, poolSize), poissonArrivals(r, serveHighRate, highDur, poolSize)
}

// timedBackend wraps the model behind the coalescer and records every
// PredictBatch call (traced pass only).
type timedBackend struct {
	serve.Backend
	mu    sync.Mutex
	calls []batchCall
}

type batchCall struct {
	start, end int64
	rows       []*[]float64 // identity of each request's window
}

func (b *timedBackend) PredictBatch(windows [][][]float64, out []float64) error {
	start := nowNs()
	err := b.Backend.PredictBatch(windows, out)
	call := batchCall{start: start, end: nowNs(), rows: make([]*[]float64, len(windows))}
	for i, w := range windows {
		call.rows[i] = &w[0]
	}
	b.mu.Lock()
	b.calls = append(b.calls, call)
	b.mu.Unlock()
	return err
}

// serveReq is one request's outcome; each is written by its own goroutine.
type serveReq struct {
	due, submit, end int64
	value            float64
	err              error
	row              *[]float64
}

// drivePhase replays one phase's arrivals open-loop: each request is
// submitted at its due time on its own goroutine, whatever the state of
// earlier ones. Outstanding requests are bounded by the coalescer, which
// sheds beyond its queue.
func drivePhase(coal *serve.Coalescer, pool [][][]float64, arr []serveArrival, base int64, traced bool) []serveReq {
	reqs := make([]serveReq, len(arr))
	var wg sync.WaitGroup
	for i, a := range arr {
		due := base + a.Due
		sleepUntil(due)
		win := pool[a.Window]
		if traced {
			// A private outer slice gives the request an identity the
			// backend wrapper can see.
			win = append([][]float64(nil), win...)
		}
		wg.Add(1)
		go func(rq *serveReq, win [][]float64) {
			defer wg.Done()
			rq.due, rq.submit, rq.row = due, nowNs(), &win[0]
			rq.value, rq.err = coal.Predict(context.Background(), win)
			rq.end = nowNs()
		}(&reqs[i], win)
	}
	wg.Wait()
	return reqs
}

func runServe(seed int64, seconds float64, traced bool, spansPath string) (*outcome, error) {
	o := newOutcome()
	o.windowQ = serveWindowQ
	pool, err := servePool(seed)
	if err != nil {
		return nil, err
	}
	low, high := serveSchedule(seed, seconds, len(pool))

	setups := serveSetups
	if traced {
		setups = 1
	}
	var setupS, fitS []float64
	var inf *drnn.Inference
	var coal *serve.Coalescer
	backend := &timedBackend{}
	for i := 0; i < setups; i++ {
		if coal != nil {
			coal.Close()
		}
		t0 := time.Now()
		var fit float64
		if inf, fit, err = fitServeModel(); err != nil {
			return nil, err
		}
		var be serve.Backend = inf
		if traced {
			backend.Backend = inf
			be = backend
		}
		coal = serve.NewCoalescer(be, serve.Options{}, nil)
		if _, err := coal.Predict(context.Background(), pool[0]); err != nil {
			coal.Close()
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		fitS = append(fitS, fit)
	}
	defer coal.Close()
	o.e2e["setup_s"] = median(setupS)
	backend.mu.Lock()
	backend.calls = nil
	backend.mu.Unlock()

	runtime.GC()
	start := nowNs() + int64(10*time.Millisecond)
	lowReqs := drivePhase(coal, pool, low, start, traced)
	highBase := start + int64(seconds*serveLowShare*1e9)
	highReqs := drivePhase(coal, pool, high, highBase, traced)
	end := nowNs()
	coal.Close()

	// Correctness, after the timed phases: every served value must be
	// bitwise equal to PredictOne on the same window.
	want := make([]float64, len(pool))
	for i, w := range pool {
		if want[i], err = inf.PredictOne(w); err != nil {
			return nil, err
		}
	}
	var served int64
	check := func(name string, reqs []serveReq, arr []serveArrival) {
		var lat []int64
		var shed, failed, wrong int64
		for i, rq := range reqs {
			switch {
			case errors.Is(rq.err, serve.ErrOverloaded):
				shed++
			case rq.err != nil:
				failed++
			case math.Float64bits(rq.value) != math.Float64bits(want[arr[i].Window]):
				wrong++
			default:
				lat = append(lat, rq.end-rq.due)
			}
		}
		o.attempted += int64(len(reqs))
		served += int64(len(lat))
		if shed > 0 {
			o.fail(shed, "%s: %d requests shed", name, shed)
		}
		if failed > 0 {
			o.fail(failed, "%s: %d requests failed", name, failed)
		}
		if wrong > 0 {
			o.fail(wrong, "%s: %d predictions differ from PredictOne", name, wrong)
		}
		if traced {
			o.layer["serve.shed_frac"] += float64(shed)
		}
		o.latencies(name, lat)
	}
	check("low", lowReqs, low)
	check("high", highReqs, high)
	o.e2e["acked_tps"] = float64(served) / (float64(end-start) / 1e9)
	o.e2e["max_rss_mb"] = peakRSSMB()
	o.note("served %d of %d requests; low %d/s, high %d/s", served, o.attempted, serveLowRate, serveHighRate)

	if traced {
		o.layer["serve.shed_frac"] /= float64(o.attempted)
		o.layer["drnn.fit_s"] = median(fitS)
		serveSpans(o, backend.calls, lowReqs, highReqs, highBase, spansPath, start, inf.Features())
	}
	return o, nil
}

// serveSpans joins the requests with the backend's batch calls, reports
// the serve and drnn per-layer metrics, and writes the span file.
func serveSpans(o *outcome, calls []batchCall, lowReqs, highReqs []serveReq, highBase int64, path string, base int64, features int) {
	type batchOf struct{ start, end int64 }
	byRow := map[*[]float64]batchOf{}
	var fwdNs, fwdWindows float64
	var lowCalls, lowWins, highCalls, highWins float64
	for _, c := range calls {
		for _, r := range c.rows {
			byRow[r] = batchOf{c.start, c.end}
		}
		if c.start < highBase {
			lowCalls++
			lowWins += float64(len(c.rows))
			continue
		}
		highCalls++
		highWins += float64(len(c.rows))
		fwdNs += float64(c.end - c.start)
		fwdWindows += float64(len(c.rows))
	}
	if lowCalls > 0 {
		o.layer["serve.batch_mean.low"] = lowWins / lowCalls
	}
	if highCalls > 0 {
		o.layer["serve.batch_mean.high"] = highWins / highCalls
	}
	if fwdWindows > 0 {
		o.layer["drnn.forward_us_per_window"] = fwdNs / fwdWindows / 1e3
		o.layer["drnn.forward_gflops"] = forwardFlops(serveModel, features) * fwdWindows / fwdNs
		o.note("drnn.forward_gflops counts %.0f FLOPs per window, computed from the layer shapes", forwardFlops(serveModel, features))
	}

	var log spanLog
	var lags []int64
	phase := func(name string, reqs []serveReq, offset int) {
		var wait, n float64
		for i, rq := range reqs {
			lags = append(lags, rq.submit-rq.due)
			b, ok := byRow[rq.row]
			if rq.err != nil || !ok {
				continue
			}
			req := int64(offset + i)
			root := log.add(0, req, "workload.request", rq.due, rq.end)
			log.add(root, req, "workload.gen_lag", rq.due, rq.submit)
			log.add(root, req, "serve.queue", rq.submit, b.start)
			log.add(root, req, "drnn.forward", b.start, b.end)
			log.add(root, req, "serve.reply", b.end, rq.end)
			wait += float64(b.start - rq.submit)
			n++
		}
		if n > 0 {
			o.layer["serve.queue_wait_us."+name] = wait / n / 1e3
		}
	}
	phase("low", lowReqs, 0)
	phase("high", highReqs, len(lowReqs))
	o.layer["workload.gen_lag_p99_ms"] = quantile(lags, 0.99) / 1e6
	layerSelfTimes(o.layer, &log)
	if err := log.write(path, base); err != nil {
		o.note("span file not written: %v", err)
	} else {
		o.note("spans: %d in %s", len(log.spans), path)
	}
}
