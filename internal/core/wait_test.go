package core

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// withinDeadline runs fn on its own goroutine and fails the test if it has
// not returned after d: a wait that never wakes shows up as a failure, not
// as a hung test binary.
func withinDeadline(t *testing.T, d time.Duration, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s did not finish within %v", what, d)
	}
}

// TestWaitsDoNotStarveAtOneProc is the starvation guard for the runtime's
// waits: on one processor a waiter must give way to the thread it waits
// for. A 4-thread team runs 10 000 barriers, then 1 000 empty regions,
// well inside the deadline.
func TestWaitsDoNotStarveAtOneProc(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	eachLayer(t, func(t *testing.T, newRT func(...Option) *Runtime) {
		rt := newRT(WithNumThreads(4))
		withinDeadline(t, 10*time.Second, "10 000 barriers and 1 000 regions", func() {
			if err := rt.Parallel(func(c *Context) {
				for i := 0; i < 10000; i++ {
					c.Barrier()
				}
			}); err != nil {
				t.Error(err)
			}
			for i := 0; i < 1000; i++ {
				if err := rt.Parallel(func(*Context) {}); err != nil {
					t.Error(err)
					return
				}
			}
		})
		if got := rt.Stats().Barriers.Load(); got != 10000+1+1000 {
			t.Errorf("Barriers = %d, want %d (every explicit and region-end barrier)", got, 10000+1+1000)
		}
	})
}

// TestWorkerPanicWhileMasterAwaitsJoin: a worker panics only once the
// master has finished its body and parked on the join. The fork still
// returns the RegionPanicError, and the same leased team then runs a clean
// region.
func TestWorkerPanicWhileMasterAwaitsJoin(t *testing.T) {
	eachLayer(t, func(t *testing.T, newRT func(...Option) *Runtime) {
		rt := newRT(WithNumThreads(4))
		var err error
		withinDeadline(t, 10*time.Second, "the panicking region", func() {
			err = rt.Parallel(func(c *Context) {
				if c.ThreadNum() != 1 {
					return
				}
				for c.team.join.sleepers.Load() == 0 {
					runtime.Gosched()
				}
				panic("late worker panic")
			})
		})
		var pe *RegionPanicError
		if !errors.As(err, &pe) || pe.Tid != 1 {
			t.Fatalf("fork returned %v, want a RegionPanicError from thread 1", err)
		}

		hits := rt.Stats().LeaseHits.Load()
		var ran atomic.Int32
		withinDeadline(t, 10*time.Second, "the clean region", func() {
			err = rt.Parallel(func(c *Context) {
				c.Barrier()
				ran.Add(1)
			})
		})
		if err != nil || ran.Load() != 4 {
			t.Errorf("clean region after the panic: err %v, %d threads ran, want nil and 4", err, ran.Load())
		}
		if got := rt.Stats().LeaseHits.Load(); got != hits+1 {
			t.Errorf("LeaseHits went %d -> %d, want the rebuilt team leased again", hits, got)
		}
	})
}

// TestCanceledQueuedTasksDoNotLeakIntoNextRegion: a ParallelCtx is
// canceled while its tasks are still queued. The abandoned tasks never
// run, and a TaskWait in the next region on the same team returns — the
// implicit task groups the team caches were re-zeroed with the rest of it.
func TestCanceledQueuedTasksDoNotLeakIntoNextRegion(t *testing.T) {
	eachLayer(t, func(t *testing.T, newRT func(...Option) *Runtime) {
		rt := newRT(WithNumThreads(4))
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var abandoned atomic.Int32
		task := func() { abandoned.Add(1) }
		var err error
		withinDeadline(t, 10*time.Second, "the canceled region", func() {
			err = rt.ParallelCtx(ctx, func(c *Context) {
				if c.ThreadNum() == 0 {
					// Nobody drains before the region end, and the cancel
					// has reached the team before thread 0's barrier, so
					// every thread unwinds from that barrier instead.
					for i := 0; i < 64; i++ {
						c.Task(task)
					}
					cancel()
					for !c.team.canceled() {
						runtime.Gosched()
					}
				}
				c.Barrier()
			})
		})
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("fork returned %v, want ErrCanceled", err)
		}

		hits := rt.Stats().LeaseHits.Load()
		withinDeadline(t, 10*time.Second, "TaskWait in the next region", func() {
			err = rt.Parallel(func(c *Context) { c.TaskWait() })
		})
		if err != nil {
			t.Errorf("next region: %v", err)
		}
		if got := rt.Stats().LeaseHits.Load(); got != hits+1 {
			t.Errorf("LeaseHits went %d -> %d, want the canceled team leased again", hits, got)
		}
		if n := abandoned.Load(); n != 0 {
			t.Errorf("%d tasks of the canceled region ran, want 0", n)
		}
	})
}
