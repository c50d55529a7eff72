package dsps

import (
	"testing"
	"time"
)

// testAcker builds an acker on the real clock with a handful of shards so
// tests exercise the striped table.
func testAcker(timeout time.Duration) *acker {
	return newAcker(timeout, 4, nil)
}

// applyOp runs one op through the acker the way a shard owner does:
// applyLocked under the owning shard's lock.
func applyOp(a *acker, op ackOp) (ackResult, bool) {
	s := &a.shards[a.shardIndex(op.rootID)]
	s.mu.Lock()
	defer s.mu.Unlock()
	return a.applyLocked(s, op)
}

// register applies a root's register op, stamped on the acker's clock as
// the engine does (its coarse clock also drives the acker).
func register(a *acker, rootID, xor uint64, msgID any, spoutTID int) (ackResult, bool) {
	return applyOp(a, ackOp{kind: ackOpRegister, rootID: rootID, val: xor, msgID: msgID, spoutTID: spoutTID, startNs: a.nowNs()})
}

// transition applies a bolt transition: the consumed edge XORed with every
// produced edge.
func transition(a *acker, rootID, consumed uint64, produced ...uint64) (ackResult, bool) {
	v := consumed
	for _, p := range produced {
		v ^= p
	}
	return applyOp(a, ackOp{kind: ackOpXor, rootID: rootID, val: v, startNs: time.Now().UnixNano()})
}

// fail applies an explicit fail of a root.
func fail(a *acker, rootID uint64) (ackResult, bool) {
	return applyOp(a, ackOp{kind: ackOpFail, rootID: rootID, startNs: time.Now().UnixNano()})
}

// sweepOrphans runs the timeout sweep as if the timeout had long passed
// and reports whether it left the table empty without failing any root:
// what remains after a root's one completion must be orphan placeholders,
// never a registered root.
func sweepOrphans(a *acker) bool {
	a.sweepNow = func() time.Time { return time.Now().Add(a.timeout + time.Hour) }
	return len(a.sweep()) == 0 && a.inFlight() == 0
}

func TestAckerLinearChainCompletes(t *testing.T) {
	a := testAcker(time.Minute)
	// Spout emits edge e1; bolt A consumes e1 and produces e2; bolt B
	// consumes e2 and produces nothing.
	const root, e1, e2 = 100, 11, 22
	register(a, root, e1, "m1", 0)
	if _, done := transition(a, root, e1, e2); done {
		t.Fatal("completed before leaf acked")
	}
	r, done := transition(a, root, e2)
	if !done || !r.ok || r.msgID != "m1" {
		t.Fatalf("result = %+v, done = %v", r, done)
	}
	if a.inFlight() != 0 {
		t.Fatal("entry not removed after completion")
	}
}

func TestAckerOutOfOrderTransitions(t *testing.T) {
	// The XOR tree is order-independent, register included: ops from
	// different producer rings reach the shard owner in any order, so the
	// downstream ack may arrive before the upstream transition that created
	// its edge, and either may arrive before the spout's register.
	const root, e1, e2 = 200, 31, 32
	ops := []ackOp{
		{kind: ackOpRegister, rootID: root, val: e1, msgU64: 9, spoutTID: 2},
		{kind: ackOpXor, rootID: root, val: e1 ^ e2}, // the producer
		{kind: ackOpXor, rootID: root, val: e2},      // the leaf
	}
	for _, order := range [][]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}} {
		a := testAcker(time.Minute)
		for i, k := range order {
			r, done := applyOp(a, ops[k])
			if last := i == len(order)-1; done != last {
				t.Fatalf("order %v: op %d done = %v", order, i, done)
			} else if last && (!r.ok || !r.hasU64 || r.msgU64 != 9 || r.spoutTID != 2) {
				t.Fatalf("order %v: result = %+v", order, r)
			}
		}
		if a.inFlight() != 0 {
			t.Fatalf("order %v: inFlight = %d after completion", order, a.inFlight())
		}
	}
}

func TestAckerFanOutTree(t *testing.T) {
	a := testAcker(time.Minute)
	// Spout emits two copies (e1, e2); each bolt copy emits two more.
	const root = 300
	edges := []uint64{1, 2, 3, 4, 5, 6}
	register(a, root, edges[0]^edges[1], "m", 0)
	if _, done := transition(a, root, edges[0], edges[2], edges[3]); done {
		t.Fatal("completed early")
	}
	if _, done := transition(a, root, edges[1], edges[4], edges[5]); done {
		t.Fatal("completed early")
	}
	for i, leaf := range edges[2:] {
		r, done := transition(a, root, leaf)
		if last := i == len(edges[2:])-1; done != last {
			t.Fatalf("leaf %d: done = %v", i, done)
		} else if last && (!r.ok || r.msgID != "m") {
			t.Fatalf("result = %+v", r)
		}
	}
}

func TestAckerExplicitFail(t *testing.T) {
	a := testAcker(time.Minute)
	register(a, 1, 5, "m", 3)
	r, done := fail(a, 1)
	if !done || r.ok || r.spoutTID != 3 {
		t.Fatalf("result = %+v, done = %v", r, done)
	}
	// Late ops for a failed root never complete it again: they park in an
	// orphan placeholder that the sweep drops silently.
	if _, done := transition(a, 1, 5); done {
		t.Fatal("failed root completed again")
	}
	if _, done := fail(a, 1); done {
		t.Fatal("failed root failed twice")
	}
	// A fail can also overtake its root's register: the placeholder
	// remembers it and absorbs later transitions, and the register delivers
	// the failure exactly once.
	if _, done := fail(a, 2); done {
		t.Fatal("fail completed an unregistered root")
	}
	if _, done := transition(a, 2, 7); done {
		t.Fatal("failed placeholder completed before its register")
	}
	if r, done := register(a, 2, 7, "n", 4); !done || r.ok || r.msgID != "n" || r.spoutTID != 4 {
		t.Fatalf("fail-before-register result = %+v, done = %v", r, done)
	}
	if !sweepOrphans(a) {
		t.Fatal("sweep reported an orphan placeholder as a root failure")
	}
}

func TestAckerTimeoutSweep(t *testing.T) {
	a := testAcker(10 * time.Millisecond)
	register(a, 1, 5, "old", 0)
	time.Sleep(20 * time.Millisecond)
	register(a, 2, 6, "fresh", 0)
	expired := a.sweep()
	if len(expired) != 1 {
		t.Fatalf("sweep failed %d roots, want 1", len(expired))
	}
	if expired[0].ok || expired[0].msgID != "old" {
		t.Fatalf("expired = %+v", expired[0])
	}
	if a.inFlight() != 1 {
		t.Fatalf("inFlight = %d, want the fresh root", a.inFlight())
	}
}

func TestAckerSweepDisabledWithoutTimeout(t *testing.T) {
	a := testAcker(0)
	register(a, 1, 5, "m", 0)
	if expired := a.sweep(); len(expired) != 0 {
		t.Fatalf("sweep with no timeout failed %d", len(expired))
	}
}

func TestAckerUnknownRootIgnored(t *testing.T) {
	a := testAcker(time.Minute)
	if _, done := transition(a, 999, 1); done {
		t.Fatal("unknown root completed")
	}
	if _, done := fail(a, 999); done {
		t.Fatal("unknown root failed")
	}
	if !sweepOrphans(a) {
		t.Fatal("sweep reported an unknown root as a failure")
	}
}

func TestAckerLatencyMeasured(t *testing.T) {
	a := testAcker(time.Minute)
	stepNs := int64(0)
	a.nowNs = func() int64 {
		stepNs += int64(10 * time.Millisecond)
		return stepNs
	}
	register(a, 1, 5, "m", 0)      // now = +10ms
	r, done := transition(a, 1, 5) // now = +20ms
	if !done || r.latency != 10*time.Millisecond {
		t.Fatalf("latency = %v, done = %v", r.latency, done)
	}
}

func TestAckerShardsRoundUpToPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {9, 16},
	} {
		a := newAcker(time.Minute, tc.in, nil)
		if len(a.shards) != tc.want {
			t.Errorf("shards(%d) = %d, want %d", tc.in, len(a.shards), tc.want)
		}
	}
}

func TestAckerRootsSpreadAcrossShards(t *testing.T) {
	a := newAcker(time.Minute, 4, nil)
	for root := uint64(1); root <= 64; root++ {
		register(a, root, root*7, root, 0)
	}
	if a.inFlight() != 64 {
		t.Fatalf("inFlight = %d, want 64", a.inFlight())
	}
	occupied := 0
	for i := range a.shards {
		if len(a.shards[i].pending) > 0 {
			occupied++
		}
	}
	if occupied != len(a.shards) {
		t.Fatalf("sequential roots occupy %d/%d shards", occupied, len(a.shards))
	}
	for root := uint64(1); root <= 64; root++ {
		if _, done := transition(a, root, root*7); !done {
			t.Fatalf("root %d did not complete", root)
		}
	}
	if a.inFlight() != 0 {
		t.Fatalf("inFlight = %d after completing all", a.inFlight())
	}
}
