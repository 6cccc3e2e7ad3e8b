package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// waitCell is where the runtime's threads wait for a condition another
// thread makes true: barrier waiters for the episode's release, the master
// for the region join, drainers for a queued task. A waiter checks its
// condition, yields its processor once, checks again, then parks on a
// condition variable; a waker pays for the lock and broadcast only when
// somebody actually parked.
//
// The yield is the whole spin phase. libgomp spins before it sleeps, and
// throttles the spin when the team outnumbers the processors, which a
// 4-thread team on a 1–2 CPU host always does. On such a host every spin
// on the condition measured slower (DESIGN.md §14): 64 loads before the
// yield cost the omp_constructs mix a quarter of its throughput, and
// parking at the first miss cost a sixth. The yield lets the thread being
// waited for run on this processor, which at GOMAXPROCS 1 is the only way
// it can.
//
// No wakeup is lost: a waiter counts itself in sleepers under mu before
// its last check of the condition, and a waker makes the condition true
// before it reads sleepers. Both are sequentially consistent, so either
// the waker sees the sleeper (and broadcasts under mu, which the sleeper
// holds until cond.Wait releases it) or the sleeper's check sees the
// condition.
type waitCell struct {
	sleepers atomic.Int32
	mu       sync.Mutex
	cond     sync.Cond
}

func (w *waitCell) init() { w.cond.L = &w.mu }

// await returns once ready reports true. ready must be cheap and must not
// block; it is called before and after the yield and under w.mu.
func (w *waitCell) await(ready func() bool) {
	if ready() {
		return
	}
	runtime.Gosched()
	if ready() {
		return
	}
	w.mu.Lock()
	w.sleepers.Add(1)
	for !ready() {
		w.cond.Wait()
	}
	w.sleepers.Add(-1)
	w.mu.Unlock()
}

// wake wakes every parked waiter; call it after making a waiter's
// condition true.
func (w *waitCell) wake() {
	if w.sleepers.Load() == 0 {
		return
	}
	w.mu.Lock()
	w.cond.Broadcast()
	w.mu.Unlock()
}
