package dsps

import (
	"encoding/binary"
	"math"
	"testing"
	"time"
)

// FuzzGroupingRatios feeds DynamicGrouping.SetRatios arbitrary float64
// vectors (including NaN/Inf/negative/denormal payloads) and checks that
// validation agrees with an independent predicate, that accepted vectors
// normalize to a distribution, and that selection honors the plan: indices
// in range, zero-ratio tasks bypassed, observed counts tracking the
// requested share within smooth-WRR tolerance.
func FuzzGroupingRatios(f *testing.F) {
	le := binary.LittleEndian
	enc := func(fs ...float64) []byte {
		var out []byte
		for _, v := range fs {
			out = le.AppendUint64(out, math.Float64bits(v))
		}
		return out
	}
	f.Add(enc(0.7, 0.3))
	f.Add(enc(1, 0, 1))
	f.Add(enc(math.NaN(), 1))
	f.Add(enc(math.Inf(1), 1))
	f.Add(enc(-1, 2))
	f.Add(enc(math.MaxFloat64, math.MaxFloat64))
	f.Add(enc(1e-300, 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 8
		if n == 0 {
			return
		}
		if n > 8 {
			n = 8
		}
		ratios := make([]float64, n)
		for i := range ratios {
			ratios[i] = math.Float64frombits(le.Uint64(data[8*i:]))
		}

		g := &DynamicGrouping{}
		err := g.SetRatios(ratios)

		valid := true
		var sum float64
		for _, r := range ratios {
			if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
				valid = false
				break
			}
			sum += r
		}
		if valid && (sum <= 0 || math.IsInf(sum, 0)) {
			valid = false
		}
		if valid != (err == nil) {
			t.Fatalf("validation disagreement: ratios=%v err=%v, independent predicate says valid=%v", ratios, err, valid)
		}
		if err != nil {
			if g.Ratios() != nil {
				t.Fatalf("rejected SetRatios(%v) still mutated the grouping: %v", ratios, g.Ratios())
			}
			return
		}

		norm := g.Ratios()
		if len(norm) != n {
			t.Fatalf("Ratios() length %d, want %d", len(norm), n)
		}
		var nsum float64
		for i, r := range norm {
			if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
				t.Fatalf("normalized ratio[%d]=%v invalid (input %v)", i, r, ratios)
			}
			nsum += r
		}
		if math.Abs(nsum-1) > 1e-9 {
			t.Fatalf("normalized ratios %v sum to %v, want 1 (input %v)", norm, nsum, ratios)
		}

		const rounds = 2000
		counts := make([]int, n)
		for i := 0; i < rounds; i++ {
			idx := g.Select(nil, n)
			if len(idx) != 1 || idx[0] < 0 || idx[0] >= n {
				t.Fatalf("Select returned %v for %d tasks", idx, n)
			}
			counts[idx[0]]++
		}
		for i, r := range norm {
			if r == 0 && counts[i] != 0 {
				t.Fatalf("zero-ratio task %d received %d tuples (ratios %v)", i, counts[i], ratios)
			}
			// Smooth WRR keeps every task within a small constant of its
			// exact share at all times.
			if diff := math.Abs(float64(counts[i]) - r*rounds); diff > float64(2*n) {
				t.Fatalf("task %d got %d of %d tuples, want share %.4f ±%d (ratios %v)",
					i, counts[i], rounds, r, 2*n, ratios)
			}
		}
	})
}

// FuzzHistogramQuantile is the fuzz form of
// TestPropertyQuantileWithinBucketBounds: any quantile of a single-value
// histogram must land within the bucket's factor-of-2 resolution.
func FuzzHistogramQuantile(f *testing.F) {
	f.Add(uint32(1000), uint8(50))
	f.Add(uint32(1), uint8(0))
	f.Add(uint32(99999), uint8(255))
	f.Add(uint32(1000), uint8(99)) // q = 1.0: rank must clamp to the population
	f.Fuzz(func(t *testing.T, usRaw uint32, qRaw uint8) {
		us := int(usRaw%100000) + 1
		d := time.Duration(us) * time.Microsecond
		q := (float64(qRaw%100) + 1) / 100 // (0, 1] inclusive of q = 1
		var h latencyHist
		for i := 0; i < 10; i++ {
			h.observe(d)
		}
		counts := h.snapshot()
		got := HistogramQuantile(counts, q)
		if got > 2*d || got*2 < d {
			t.Fatalf("q=%.2f of %v point mass = %v, outside factor-2 band", q, d, got)
		}
		// Monotonicity in q: the fuzzed quantile sits between the extremes.
		lo, hi := HistogramQuantile(counts, 0.01), HistogramQuantile(counts, 1)
		if got < lo || got > hi {
			t.Fatalf("q=%.2f gave %v outside [q=0.01 %v, q=1 %v]", q, got, lo, hi)
		}
	})
}

// FuzzAckerTrees is the fuzz form of TestPropertyAckerRandomTrees: XOR
// acking over a random tuple tree completes the root exactly once, when
// every edge has been produced and consumed (or fails it once a fail and
// the register are in), under any op order.
func FuzzAckerTrees(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(2))
	f.Add(int64(42), uint8(0), uint8(0))
	f.Add(int64(-7), uint8(255), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, fanRaw, depthRaw uint8) {
		if !ackerRandomTreeProperty(seed, fanRaw, depthRaw) {
			t.Fatalf("acker tree invariant failed for seed=%d fan=%d depth=%d", seed, fanRaw, depthRaw)
		}
	})
}
