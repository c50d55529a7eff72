package dsps

import (
	"runtime"

	"predstream/internal/ring"
)

// Data plane: every producer→bolt hand-off is a dedicated bounded SPSC
// ring. Producers attach a private ring to the target on first send and
// keep pushing into it for the target's lifetime; the bolt executor
// round-robins across its ring list and parks on a waiter when every ring
// runs dry. Backpressure is the tuple-denominated reserve()/release() CAS
// bound, enforced before any push, and a ring holds QueueSize batch
// slots, so a reserved push never finds it full.
//
// SPSC ownership discipline (enforced by dspslint's ringmisuse
// analyzer): the push side of a data ring is owned by the producer's
// executor goroutine (or the ticker goroutine for its private tick
// ring), the pop side by the target's executor goroutine. Retirement
// transfers both sides to the retiring goroutine only after the previous
// owners have provably exited (ScaleDown's awaitProducers/awaitDone
// barriers).

// spinBudget is how many yields an idle bolt executor burns before
// parking, given the runtime's processor count. Each failed probe calls
// runtime.Gosched — a raw spin would starve the producers on a single-P
// runtime. With one P even yielding is waste: every producer the executor
// could be waiting on needs that same P to run, so it parks at once.
func spinBudget(procs int) int {
	if procs <= 1 {
		return 0
	}
	return 64
}

// attachInRingLocked creates a producer ring and splices it into
// target's consumer list. The caller holds the topology splice read lock
// and has observed target alive, so the list cannot be concurrently
// reclaimed; ringMu orders concurrent attaches (and consumer prunes)
// against each other.
//
//dsps:coldpath
func (rt *runningTopology) attachInRingLocked(target *task) *ring.SPSC[envBatch] {
	r, _ := ring.New[envBatch](rt.cfg.QueueSize)
	target.ringMu.Lock()
	old := *target.inRings.Load()
	list := make([]*ring.SPSC[envBatch], len(old)+1)
	copy(list, old)
	list[len(old)] = r
	target.inRings.Store(&list)
	target.ringMu.Unlock()
	return r
}

// drainInRings pops at most one batch from every input ring (round-robin
// fairness across producers) and processes it. Returns the number of
// tuples handled and false when the topology shut down mid-batch.
//
//dsps:hotpath
//dsps:ringconsumer
func (rt *runningTopology) drainInRings(tk *task, collector *boltCollector) (int, bool) {
	rings := *tk.inRings.Load()
	total := 0
	for _, r := range rings {
		b, ok := r.Pop()
		if !ok {
			continue
		}
		total += b.size()
		if !rt.processBatch(tk, collector, b) {
			return total, false
		}
	}
	return total, true
}

// inRingsEmpty re-checks emptiness against a *fresh* list snapshot. It
// must be called after Waiter.Prepare: the producer's attach/push are
// sequenced before its Wake, so either this check observes the new
// element or the Wake observes the parked flag — a lost wakeup is
// impossible.
//
//dsps:ringconsumer
func (rt *runningTopology) inRingsEmpty(tk *task) bool {
	for _, r := range *tk.inRings.Load() {
		if !r.Empty() {
			return false
		}
	}
	return true
}

// pruneInRings drops closed, fully drained producer rings (their
// producer was scaled down) from tk's consumer list. Cold path, called
// only when the executor is about to park.
//
//dsps:ringconsumer
func (rt *runningTopology) pruneInRings(tk *task) {
	rings := *tk.inRings.Load()
	stale := 0
	for _, r := range rings {
		if r.Closed() && r.Empty() {
			stale++
		}
	}
	if stale == 0 {
		return
	}
	tk.ringMu.Lock()
	cur := *tk.inRings.Load()
	list := make([]*ring.SPSC[envBatch], 0, len(cur))
	for _, r := range cur {
		if !(r.Closed() && r.Empty()) {
			list = append(list, r)
		}
	}
	tk.inRings.Store(&list)
	tk.ringMu.Unlock()
}

// ringDepth sums the buffered batches across tk's input rings, exported
// as predstream_ring_depth.
func (tk *task) ringDepth() int {
	p := tk.inRings.Load()
	if p == nil {
		return 0
	}
	total := 0
	for _, r := range *p {
		total += r.Len()
	}
	return total
}

// boltLoop is the bolt executor loop: drain every producer ring, flush,
// and when idle yield-spin for up to rt.ringSpins probes, then park on
// the waiter.
func (rt *runningTopology) boltLoop(tk *task, collector *boltCollector) {
	spins := 0
	for {
		rt.maybeRebuild(tk)
		select {
		case <-rt.ctx.Done():
			return
		case <-tk.stop:
			// Drain request from ScaleDown: everything emitted or staged
			// goes out before the executor settles; unprocessed input stays
			// in the rings for retireTask to reclaim.
			rt.flushOut(tk)
			return
		default:
		}
		processed, ok := rt.drainInRings(tk, collector)
		if !ok {
			return
		}
		if processed > 0 {
			// Bolts emit only while processing input, so flushing here
			// (rather than on a deadline) bounds output latency by the
			// input batch and leaves nothing buffered while idle.
			rt.flushOut(tk)
			spins = 0
			continue
		}
		if spins < rt.ringSpins {
			spins++
			runtime.Gosched()
			continue
		}
		// Park. Prepare publishes the parked flag before the emptiness
		// re-check, closing the race against a concurrent push+Wake.
		rt.pruneInRings(tk)
		tk.ringWait.Prepare()
		if !rt.inRingsEmpty(tk) {
			tk.ringWait.Cancel()
			spins = 0
			continue
		}
		tk.counters.ringParks.Add(1)
		wake := rt.spliceWake.Load()
		select {
		case <-rt.ctx.Done():
			tk.ringWait.Cancel()
			return
		case <-tk.stop:
			tk.ringWait.Cancel()
			rt.flushOut(tk)
			return
		case <-*wake:
			// A splice advanced the route epoch; loop so even an idle bolt
			// re-acks it promptly (ScaleDown waits on that convergence).
			tk.ringWait.Cancel()
		case <-tk.ringWait.C():
		}
		spins = 0
	}
}
