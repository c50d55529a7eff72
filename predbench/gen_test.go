package main

import (
	"slices"
	"testing"
)

// schedules is every generated input of the three workloads for one seed.
type schedules struct {
	keys      []uint16
	ref       []int64
	cycles    []faultCycle
	low, high []serveArrival
	pool      [][][]float64
}

func generate(t *testing.T, seed int64) schedules {
	t.Helper()
	pool, err := servePool(seed)
	if err != nil {
		t.Fatal(err)
	}
	keys := ingestKeys(seed, 200000)
	low, high := serveSchedule(seed, 4, len(pool))
	return schedules{
		keys:   keys,
		ref:    referenceCounts(keys, ingestNumKeys),
		cycles: faultCycles(seed, 200, fleetParse),
		low:    low,
		high:   high,
		pool:   pool,
	}
}

func equalPools(a, b [][][]float64) bool {
	return slices.EqualFunc(a, b, func(x, y [][]float64) bool {
		return slices.EqualFunc(x, y, func(p, q []float64) bool { return slices.Equal(p, q) })
	})
}

func TestSchedulesComeFromTheSeedAlone(t *testing.T) {
	a, b := generate(t, 7), generate(t, 7)
	if !slices.Equal(a.keys, b.keys) || !slices.Equal(a.ref, b.ref) {
		t.Error("same seed gave different ingest keys or reference counts")
	}
	if !slices.Equal(a.cycles, b.cycles) {
		t.Error("same seed gave different fault cycles")
	}
	if !slices.Equal(a.low, b.low) || !slices.Equal(a.high, b.high) {
		t.Error("same seed gave different serve arrivals")
	}
	if !equalPools(a.pool, b.pool) {
		t.Error("same seed gave different serve windows")
	}

	c := generate(t, 8)
	if slices.Equal(a.keys, c.keys) || slices.Equal(a.ref, c.ref) {
		t.Error("another seed gave the same ingest keys or reference counts")
	}
	if slices.Equal(a.cycles, c.cycles) {
		t.Error("another seed gave the same fault cycles")
	}
	if slices.Equal(a.low, c.low) || slices.Equal(a.high, c.high) {
		t.Error("another seed gave the same serve arrivals")
	}
	if equalPools(a.pool, c.pool) {
		t.Error("another seed gave the same serve windows")
	}
}

func TestGeneratedInputsHaveTheirIntendedShape(t *testing.T) {
	s := generate(t, 1)
	var total int64
	for _, n := range s.ref {
		total += n
	}
	if total != int64(len(s.keys)) {
		t.Fatalf("reference counts sum to %d, want %d", total, len(s.keys))
	}
	// Zipf skew: key 0 is the hottest and every key occurs.
	if slices.Max(s.ref) != s.ref[0] || slices.Min(s.ref) == 0 {
		t.Errorf("keys are not Zipf-skewed over all %d keys: hottest %d, key0 %d, coldest %d",
			ingestNumKeys, slices.Max(s.ref), s.ref[0], slices.Min(s.ref))
	}
	if share := float64(s.ref[0]) / float64(total); share < 0.1 || share > 0.2 {
		t.Errorf("hottest key share %.3f outside [0.1, 0.2]", share)
	}
	steps := 0
	for _, c := range s.cycles {
		if c.Victim < 0 || c.Victim >= fleetParse || c.FaultSteps < fleetFaultStepsMin || c.ClearSteps < fleetClearStepsMin {
			t.Errorf("bad fault cycle %+v", c)
		}
		steps += c.FaultSteps + c.ClearSteps
	}
	if steps < 200 {
		t.Errorf("fault cycles cover %d steps, want ≥ 200", steps)
	}
	// Poisson arrivals at the phase rates: 4s split by serveLowShare.
	lowWant := serveLowRate * 4 * serveLowShare
	if n := float64(len(s.low)); n < 0.8*lowWant || n > 1.2*lowWant {
		t.Errorf("low phase has %v arrivals, want about %v", n, lowWant)
	}
	for _, arr := range [][]serveArrival{s.low, s.high} {
		if !slices.IsSortedFunc(arr, func(a, b serveArrival) int { return int(a.Due - b.Due) }) {
			t.Error("arrivals are not in due order")
		}
		for _, a := range arr {
			if a.Window < 0 || a.Window >= len(s.pool) {
				t.Fatalf("arrival picks window %d of %d", a.Window, len(s.pool))
			}
		}
	}
}

func TestZipfTableIsFull(t *testing.T) {
	table := zipfTable(ingestNumKeys, ingestZipfS)
	if len(table) != 1<<zipfTableBits {
		t.Fatalf("table has %d slots, want %d", len(table), 1<<zipfTableBits)
	}
	if !slices.IsSorted(table) || table[0] != 0 || int(table[len(table)-1]) != ingestNumKeys-1 {
		t.Error("table does not cover keys 0..numKeys-1 in order")
	}
}

func TestSelfTimes(t *testing.T) {
	var l spanLog
	root := l.add(0, 1, "workload.request", 100, 200)
	l.add(root, 1, "dsps.emit", 100, 130)
	parse := l.add(root, 1, "app.parse", 130, 180)
	l.add(parse, 1, "dsps.emit", 140, 150)
	l.add(root, 1, "dsps.skip", 0, 150) // missing endpoint: dropped
	got, reqs := l.selfTimes()
	want := map[string]float64{"workload": 20, "dsps": 40, "app": 40}
	if reqs != 1 || len(l.spans) != 4 {
		t.Fatalf("requests=%d spans=%d, want 1 and 4", reqs, len(l.spans))
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self time of %s = %v, want %v", k, got[k], v)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []int64{5, 1, 4, 2, 3}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("median = %v, want 3", q)
	}
	if q := quantile(xs, 1); q != 5 {
		t.Errorf("max = %v, want 5", q)
	}
	if q := quantile(nil, 0.99); q != 0 {
		t.Errorf("empty quantile = %v, want 0", q)
	}
}
