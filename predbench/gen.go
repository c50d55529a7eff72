package main

import (
	"math"
	"math/rand/v2"
)

// Every input a workload feeds the system under test is generated here,
// up front, from the --seed argument alone. Each generator draws from its
// own PCG stream (the seed plus a per-generator constant), so adding a
// generator never shifts another's draws.

const (
	streamKeys   = 0x6b657973 // "keys"
	streamFaults = 0x666c7473 // "flts"
	streamServe  = 0x73727665 // "srve"
)

func newRand(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// zipfTableBits sizes the inverse-CDF table: 2^16 slots, so the rarest of
// numKeys=1024 keys at s=1.1 still owns a few slots.
const zipfTableBits = 16

// zipfTable returns a 2^zipfTableBits-slot table in which key k fills a
// share of the slots proportional to 1/(k+1)^s (largest-remainder
// rounding, every key at least one slot). Drawing a uniform slot draws a
// Zipf-distributed key in O(1).
func zipfTable(numKeys int, s float64) []uint16 {
	slots := 1 << zipfTableBits
	weights := make([]float64, numKeys)
	var sum float64
	for k := range weights {
		weights[k] = 1 / math.Pow(float64(k+1), s)
		sum += weights[k]
	}
	counts := make([]int, numKeys)
	used := 0
	for k, w := range weights {
		counts[k] = max(1, int(w/sum*float64(slots)))
		used += counts[k]
	}
	// Hand the rounding remainder to (or take it from) the hottest keys so
	// the table is exactly full.
	for k := 0; used != slots; k = (k + 1) % numKeys {
		if used < slots {
			counts[k]++
			used++
		} else if counts[k] > 1 {
			counts[k]--
			used--
		}
	}
	table := make([]uint16, 0, slots)
	for k, c := range counts {
		for i := 0; i < c; i++ {
			table = append(table, uint16(k))
		}
	}
	return table
}

// ingestKeys draws n Zipf-skewed keys for the ingest workload.
func ingestKeys(seed int64, n int) []uint16 {
	table := zipfTable(ingestNumKeys, ingestZipfS)
	r := newRand(seed, streamKeys)
	keys := make([]uint16, n)
	for i := range keys {
		keys[i] = table[r.Uint64()>>(64-zipfTableBits)]
	}
	return keys
}

// referenceCounts counts key occurrences in keys, the expected per-key
// totals the count bolts must reproduce.
func referenceCounts(keys []uint16, numKeys int) []int64 {
	counts := make([]int64, numKeys)
	for _, k := range keys {
		counts[k]++
	}
	return counts
}

// faultCycle is one fault/clear cycle of the fleet-misbehave workload, in
// control steps: the fault is injected a fixed phase after step Start,
// cleared the same phase after step Start+FaultSteps, and the next cycle
// starts ClearSteps later.
type faultCycle struct {
	Victim     int // index of the parse task whose engine worker misbehaves
	FaultSteps int
	ClearSteps int
}

// faultCycles draws cycles until totalSteps control steps are covered.
func faultCycles(seed int64, totalSteps, victims int) []faultCycle {
	r := newRand(seed, streamFaults)
	var out []faultCycle
	for used := 0; used < totalSteps; {
		c := faultCycle{
			Victim:     r.IntN(victims),
			FaultSteps: fleetFaultStepsMin + r.IntN(fleetFaultStepsSpan),
			ClearSteps: fleetClearStepsMin + r.IntN(fleetClearStepsSpan),
		}
		out = append(out, c)
		used += c.FaultSteps + c.ClearSteps
	}
	return out
}

// serveArrival is one prediction request: when it is due (ns after the
// phase start) and which pool window it carries.
type serveArrival struct {
	Due    int64
	Window int
}

// poissonArrivals draws a Poisson arrival schedule at rate requests/s over
// dur nanoseconds, each request carrying a uniformly drawn pool window.
func poissonArrivals(r *rand.Rand, rate float64, dur int64, poolSize int) []serveArrival {
	var out []serveArrival
	t := 0.0
	for {
		t += r.ExpFloat64() / rate * 1e9
		if int64(t) >= dur {
			return out
		}
		out = append(out, serveArrival{Due: int64(t), Window: r.IntN(poolSize)})
	}
}

const (
	fleetFaultStepsMin  = 5
	fleetFaultStepsSpan = 4
	fleetClearStepsMin  = 8
	fleetClearStepsSpan = 5
)
