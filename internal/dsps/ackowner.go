package dsps

import (
	"runtime"
	"sync"
	"sync/atomic"

	"predstream/internal/ring"
)

// Single-writer acker shard ownership: instead of every executor locking
// a pending-table stripe per anchored tuple, each stripe gets an owner
// goroutine and executors hand it ackOps through
// per-(producer, shard) SPSC rings. Ops are staged in producer-local
// slices and pushed a slice at a time, so the ring's seq-cst publish cost
// and the owner wakeup amortize over ackStageMax ops; the owner applies a
// whole slice under one (uncontended) lock acquisition, so the
// common-path lock traffic collapses to ~1/slice. The stripe mutex
// survives only for cold-path readers (timeout sweep, inFlight, metrics).
//
// Ops from different producers reach the owner in arbitrary relative
// order, but XOR commutes — acker.applyLocked parks early arrivals in
// placeholder entries until the root's register lands, so reordering
// never changes the completion value.

// ackRingCap is the capacity (in op slices) of each producer→owner ring.
// Producers that outrun a backlogged owner yield until a slot frees.
const ackRingCap = 256

// ackStageMax is how many ops a producer stages per shard before pushing
// the slice to the shard owner — the batch size of the ack plane.
const ackStageMax = 64

type ackOpKind uint8

const (
	// ackOpRegister starts tracking a root: val is the XOR of the spout's
	// initial output edge ids.
	ackOpRegister ackOpKind = iota
	// ackOpXor folds a bolt transition into the root: val is the consumed
	// edge id XORed with every produced edge id.
	ackOpXor
	// ackOpFail fails the root immediately.
	ackOpFail
)

// ackOp is one staged mutation of the XOR ack tree.
type ackOp struct {
	kind     ackOpKind
	rootID   uint64
	val      uint64
	msgU64   uint64
	msgID    any
	spoutTID int
	startNs  int64
}

// ackOwners is the acker front end: one owner per shard.
type ackOwners struct {
	owners []ackOwner
	// opsPending counts ops staged (producer-local or in owner rings) or
	// applied but not yet delivered to their spout; quiescence requires
	// zero, which closes the window where a completion is in flight
	// between an executor and its shard owner.
	opsPending atomic.Int64
	// pool recycles op slices between producers (fill) and owners (drain);
	// sync.Pool keeps the exchange per-P and allocation-free in steady
	// state.
	pool sync.Pool
}

// ackOwner is one shard's inbox: a copy-on-write list of producer rings
// plus the waiter its owner goroutine parks on.
type ackOwner struct {
	mu    sync.Mutex // guards rings list mutation (attach, prune)
	rings atomic.Pointer[[]*ring.SPSC[*[]ackOp]]
	wait  *ring.Waiter
}

func newAckOwners(shards int) *ackOwners {
	ao := &ackOwners{owners: make([]ackOwner, shards)}
	ao.pool.New = func() any {
		s := make([]ackOp, 0, ackStageMax)
		return &s
	}
	for i := range ao.owners {
		empty := make([]*ring.SPSC[*[]ackOp], 0)
		ao.owners[i].rings.Store(&empty)
		ao.owners[i].wait = ring.NewWaiter()
	}
	return ao
}

// attach registers a new producer ring with shard s's owner. It runs
// once per (task, shard) pairing — the first flush to a shard — never
// per op, so its allocations are off the steady-state path.
//
//dsps:coldpath
func (ao *ackOwners) attach(s int) *ring.SPSC[*[]ackOp] {
	r, _ := ring.New[*[]ackOp](ackRingCap)
	o := &ao.owners[s]
	o.mu.Lock()
	old := *o.rings.Load()
	list := make([]*ring.SPSC[*[]ackOp], len(old)+1)
	copy(list, old)
	list[len(old)] = r
	o.rings.Store(&list)
	o.mu.Unlock()
	return r
}

// empty re-checks every inbox ring against a fresh list snapshot; must
// run after Waiter.Prepare (see inRingsEmpty for the ordering argument).
func (o *ackOwner) empty() bool {
	for _, r := range *o.rings.Load() {
		if !r.Empty() {
			return false
		}
	}
	return true
}

// prune drops closed, fully drained producer rings (their task was
// scaled down). Owner goroutine only, cold path.
func (o *ackOwner) prune() {
	stale := 0
	for _, r := range *o.rings.Load() {
		if r.Closed() && r.Empty() {
			stale++
		}
	}
	if stale == 0 {
		return
	}
	o.mu.Lock()
	cur := *o.rings.Load()
	list := make([]*ring.SPSC[*[]ackOp], 0, len(cur))
	for _, r := range cur {
		if !(r.Closed() && r.Empty()) {
			list = append(list, r)
		}
	}
	o.rings.Store(&list)
	o.mu.Unlock()
}

// stageAckOp appends one op to the task's stage slice for the owning
// shard, pushing the slice to the shard owner when it fills. Executor
// goroutine only (tk.ackStage/ackRings are executor-local state); partial
// slices are pushed by flushAckStage, which flushOut invokes on every
// flush point (batch deadline, idle, backpressure block, drain).
//
//dsps:hotpath
func (rt *runningTopology) stageAckOp(tk *task, op ackOp) {
	ao := rt.ackOwners
	s := rt.acker.shardIndex(op.rootID)
	if tk.ackStage == nil {
		tk.ackStage = make([]*[]ackOp, len(rt.acker.shards)) //dspslint:ignore allocfree one-time lazy init per task, not per op
	}
	st := tk.ackStage[s]
	if st == nil {
		st = ao.pool.Get().(*[]ackOp)
		tk.ackStage[s] = st
	}
	*st = append(*st, op) //dspslint:ignore allocfree pooled slice retains ackStageMax capacity across reuse; append only grows on first fill
	ao.opsPending.Add(1)
	if len(*st) >= ackStageMax {
		rt.flushAckShard(tk, s)
	}
}

// flushAckShard pushes the task's staged op slice for shard s to that
// shard's owner. The producer yields (never raw-spins: single-P runtimes
// starve otherwise) while the owner's ring is full, bailing on shutdown
// so a canceled topology cannot wedge a producer.
//
//dsps:ringproducer
func (rt *runningTopology) flushAckShard(tk *task, s int) {
	st := tk.ackStage[s]
	if st == nil || len(*st) == 0 {
		return
	}
	tk.ackStage[s] = nil
	if tk.ackRings == nil {
		tk.ackRings = make([]*ring.SPSC[*[]ackOp], len(rt.acker.shards)) //dspslint:ignore allocfree one-time lazy init per task, not per op
	}
	r := tk.ackRings[s]
	if r == nil {
		r = rt.ackOwners.attach(s)
		tk.ackRings[s] = r
	}
	ao := rt.ackOwners
	for !r.Push(st) {
		if rt.ctx.Err() != nil {
			ao.opsPending.Add(int64(-len(*st)))
			*st = (*st)[:0]
			ao.pool.Put(st)
			return
		}
		runtime.Gosched()
		ao.owners[s].wait.Wake()
	}
	ao.owners[s].wait.Wake()
}

// flushAckStage pushes every non-empty staged op slice. Called from
// flushOut so every existing flush point (deadline, idle, backpressure
// block, stop-drain) also drains the ack plane — quiescence depends on
// it: opsPending counts staged ops from the moment they are staged.
func (rt *runningTopology) flushAckStage(tk *task) {
	if tk.ackStage == nil {
		return
	}
	for s := range tk.ackStage {
		if st := tk.ackStage[s]; st != nil && len(*st) > 0 {
			rt.flushAckShard(tk, s)
		}
	}
}

// dropAckStage discards the task's staged, unpushed ops — retirement path
// for executors that exited without a final flush. Their roots complete
// through the ack-timeout sweep, like force-drained tuples.
func (rt *runningTopology) dropAckStage(tk *task) {
	if tk.ackStage == nil {
		return
	}
	ao := rt.ackOwners
	for s, st := range tk.ackStage {
		if st == nil {
			continue
		}
		if n := len(*st); n > 0 {
			ao.opsPending.Add(int64(-n))
		}
		*st = (*st)[:0]
		ao.pool.Put(st)
		tk.ackStage[s] = nil
	}
}

// ackRegister stages the start of a root's tracking: xor is the XOR of
// the spout's initial output edge ids. Exactly one of msgID (boxed
// anchoring) and msgU64 (typed-lane anchoring) identifies the root back
// to its spout.
//
//dsps:hotpath
func (rt *runningTopology) ackRegister(tk *task, rootID, xor uint64, msgID any, msgU64 uint64) {
	rt.stageAckOp(tk, ackOp{
		kind:     ackOpRegister,
		rootID:   rootID,
		val:      xor,
		msgU64:   msgU64,
		msgID:    msgID,
		spoutTID: tk.id,
		startNs:  rt.clock.nowNs(),
	})
}

// ackTransition stages a bolt transition: the consumed edge id XORed with
// every produced edge id. The shard owner detects completion and delivers
// it to the spout directly.
//
//dsps:hotpath
func (rt *runningTopology) ackTransition(tk *task, rootID, consumedEdge uint64, produced []uint64) {
	v := consumedEdge
	for _, p := range produced {
		v ^= p
	}
	// startNs only ages a placeholder created by op reordering; the
	// coarse clock is plenty for the sweep's orphan cutoff.
	rt.stageAckOp(tk, ackOp{kind: ackOpXor, rootID: rootID, val: v, startNs: rt.clock.nowNs()})
}

// ackFail stages an immediate failure of a root.
//
//dsps:hotpath
func (rt *runningTopology) ackFail(tk *task, rootID uint64) {
	rt.stageAckOp(tk, ackOp{kind: ackOpFail, rootID: rootID, startNs: rt.clock.nowNs()})
}

// runAckOwner is shard s's owner goroutine: it drains every producer
// ring, applies each popped op slice under a single shard-lock
// acquisition, recycles the slice, and delivers the resulting
// completions to their spouts.
//
//dsps:ringconsumer
func (rt *runningTopology) runAckOwner(s int) {
	defer rt.wg.Done()
	ao := rt.ackOwners
	o := &ao.owners[s]
	shard := &rt.acker.shards[s]
	buf := make([]*[]ackOp, 16)
	var staged []ackBatch
	for {
		drained := 0
		rings := *o.rings.Load()
		for _, r := range rings {
			for {
				n := r.PopBatch(buf)
				if n == 0 {
					break
				}
				for i := 0; i < n; i++ {
					ops := *buf[i]
					shard.mu.Lock()
					for j := range ops {
						if res, ok := rt.acker.applyLocked(shard, ops[j]); ok {
							staged = rt.stageAckResult(staged, res)
						}
					}
					shard.mu.Unlock()
					drained += len(ops)
					*buf[i] = ops[:0]
					ao.pool.Put(buf[i])
					buf[i] = nil
				}
				if n < len(buf) {
					break
				}
			}
		}
		if drained > 0 {
			// Deliver before decrementing opsPending: quiescent() must not
			// observe zero while a completion is still owner-local.
			for i := range staged {
				if len(staged[i].results) > 0 {
					rt.sendAcks(staged[i].spout, staged[i].results)
					staged[i].results = nil
				}
			}
			staged = staged[:0]
			ao.opsPending.Add(int64(-drained))
			continue
		}
		// Idle: prune retired producers, then park until the next flush.
		o.prune()
		o.wait.Prepare()
		if !o.empty() {
			o.wait.Cancel()
			continue
		}
		select {
		case <-rt.ctx.Done():
			o.wait.Cancel()
			return
		case <-o.wait.C():
		}
	}
}

// ackBatch stages completions bound for one spout between deliveries.
type ackBatch struct {
	spout   *task
	results []ackResult
}

// stageAckResult groups a completion into the per-spout staging batches.
func (rt *runningTopology) stageAckResult(staged []ackBatch, r ackResult) []ackBatch {
	for i := range staged {
		if staged[i].spout.id == r.spoutTID {
			staged[i].results = append(staged[i].results, r)
			return staged
		}
	}
	sp := rt.taskOf(r.spoutTID)
	if sp == nil {
		// Spout retired; its roots fail through the sweep of whatever is
		// left, and this completion has nowhere to go.
		return staged
	}
	rs := append(rt.fl.getAcks(rt.effBatch), r)
	return append(staged, ackBatch{spout: sp, results: rs})
}
