// Package corpus is the splicesend analyzer's test corpus. It imports the
// real ring package so the analyzer's type match (a push onto a
// ring.SPSC of envBatch) is exercised, not a lookalike.
package corpus

import (
	"sync"

	"predstream/internal/ring"
)

type envBatch struct{ vals []int }

type worker struct {
	in   *ring.SPSC[envBatch]
	acks *ring.SPSC[*[]int]
	dead bool
}

type topo struct {
	spliceMu sync.RWMutex
	mu       sync.Mutex
}

// barePush hands a batch over with no lock at all: a concurrent retire can
// drain the ring mid-push.
func (t *topo) barePush(w *worker, b envBatch) {
	w.in.Push(b) // want: splicesend
}

// wrongLock holds a lock, but not the splice lock.
func (t *topo) wrongLock(w *worker, b envBatch) {
	t.mu.Lock()
	w.in.Push(b) // want: splicesend
	t.mu.Unlock()
}

// unlockedTail releases the read lock before the push lands.
func (t *topo) unlockedTail(w *worker, b envBatch) {
	t.spliceMu.RLock()
	dead := w.dead
	t.spliceMu.RUnlock()
	if !dead {
		w.in.Push(b) // want: splicesend
	}
}

// conditionPush is the engine's `if !r.Push(b)` shape, unlocked.
func (t *topo) conditionPush(w *worker, b envBatch) bool {
	if !w.in.Push(b) { // want: splicesend
		return false
	}
	return true
}

// selectPush pushes from a select case without the lock.
func (t *topo) selectPush(w *worker, b envBatch, tick chan struct{}) {
	select {
	case <-tick:
		w.in.PushBatch([]envBatch{b}) // want: splicesend
	}
}

// readLockedPush is the engine's producer shape and must NOT be flagged.
func (t *topo) readLockedPush(w *worker, b envBatch) bool {
	t.spliceMu.RLock()
	if w.dead {
		t.spliceMu.RUnlock()
		return false
	}
	if !w.in.Push(b) {
		t.spliceMu.RUnlock()
		return false
	}
	t.spliceMu.RUnlock()
	return true
}

// writeLockedPush holds the exclusive splice lock: also fine.
func (t *topo) writeLockedPush(w *worker, b envBatch) {
	t.spliceMu.Lock()
	w.in.Push(b)
	t.spliceMu.Unlock()
}

// deferredSpliceUnlock keeps the lock to function exit: the push is held.
func (t *topo) deferredSpliceUnlock(w *worker, b envBatch) {
	t.spliceMu.RLock()
	defer t.spliceMu.RUnlock()
	w.in.Push(b)
}

// selectLockedPush takes the lock inside the comm body before pushing —
// the ticker's self-push shape; must NOT be flagged.
func (t *topo) selectLockedPush(w *worker, b envBatch, tick chan struct{}) {
	for {
		select {
		case <-tick:
			t.spliceMu.RLock()
			if w.dead {
				t.spliceMu.RUnlock()
				return
			}
			w.in.Push(b)
			t.spliceMu.RUnlock()
		}
	}
}

// ackPush feeds an acker op ring, not a bolt input ring: out of scope.
func (t *topo) ackPush(w *worker, ops *[]int) {
	w.acks.Push(ops)
}

// pop is consumer-side: retirement owns it only after the consumer exits,
// which ringmisuse's annotations cover, not this analyzer.
func (t *topo) pop(w *worker) (envBatch, bool) {
	return w.in.Pop()
}

// otherChannel is not a fan-out hand-off; channel sends stay out of scope.
func (t *topo) otherChannel(out chan []int, b []int) {
	out <- b
}
