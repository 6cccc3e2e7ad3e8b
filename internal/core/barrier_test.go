package core

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// exerciseBarrier hammers a barrier with size threads over many episodes
// and verifies (a) no thread enters episode e+1 before all arrived at e,
// and (b) exactly one releaser per episode.
func exerciseBarrier(t *testing.T, mk func(size int) teamBarrier, size, episodes int) {
	t.Helper()
	b := mk(size)
	arrived := make([]atomic.Int32, episodes)
	releasers := make([]atomic.Int32, episodes)
	var wg sync.WaitGroup
	for tid := 0; tid < size; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for e := 0; e < episodes; e++ {
				arrived[e].Add(1)
				if b.Wait(tid, nil) {
					releasers[e].Add(1)
				}
				if got := arrived[e].Load(); got != int32(size) {
					t.Errorf("episode %d: passed with %d/%d arrivals", e, got, size)
					return
				}
			}
		}(tid)
	}
	wg.Wait()
	for e := 0; e < episodes; e++ {
		if releasers[e].Load() != 1 {
			t.Errorf("episode %d: %d releasers, want 1", e, releasers[e].Load())
		}
	}
}

func TestCentralBarrier(t *testing.T) {
	for _, size := range []int{2, 3, 8, 24} {
		exerciseBarrier(t, func(n int) teamBarrier { return newCentralBarrier(n) }, size, 200)
	}
}

func TestTreeBarrier(t *testing.T) {
	for _, size := range []int{2, 3, 7, 8, 24} {
		exerciseBarrier(t, func(n int) teamBarrier { return newTreeBarrier(n) }, size, 200)
	}
}

func TestBarrierSizeOne(t *testing.T) {
	for _, kind := range []BarrierKind{BarrierCentral, BarrierTree} {
		b := newBarrier(kind, 1)
		for i := 0; i < 5; i++ {
			if !b.Wait(0, nil) {
				t.Errorf("%v size-1 barrier must release immediately", kind)
			}
		}
	}
}

func TestNewBarrierSelectsKind(t *testing.T) {
	if _, ok := newBarrier(BarrierTree, 8).(*treeBarrier); !ok {
		t.Error("BarrierTree did not produce a tree barrier")
	}
	if _, ok := newBarrier(BarrierCentral, 8).(*centralBarrier); !ok {
		t.Error("BarrierCentral did not produce a central barrier")
	}
}

func TestTreeBarrierInsideRuntime(t *testing.T) {
	rt, err := New(WithLayer(NewNativeLayer(24)), WithNumThreads(8), WithBarrierKind(BarrierTree))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	var sum atomic.Int64
	_ = rt.Parallel(func(c *Context) {
		for r := 0; r < 30; r++ {
			c.For(64, func(i int) { sum.Add(1) })
		}
	})
	if sum.Load() != 30*64 {
		t.Errorf("sum = %d, want %d", sum.Load(), 30*64)
	}
}

// returnsAtOnce runs wait on its own goroutine and fails the test if it
// blocks: an aborted barrier must never hold a thread.
func returnsAtOnce(t *testing.T, what string, wait func() bool) bool {
	t.Helper()
	done := make(chan bool, 1)
	go func() { done <- wait() }()
	select {
	case released := <-done:
		return released
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: blocked on an aborted barrier", what)
		return false
	}
}

// TestBarrierAbort drives both barrier kinds through the three ways a
// cancel meets a barrier: threads parked mid-episode are released,
// arrivals after the abort return at once, and a cancel that lands after
// the last arrival released the episode still latches for the next one.
func TestBarrierAbort(t *testing.T) {
	const size = 4
	for _, kind := range []BarrierKind{BarrierCentral, BarrierTree} {
		t.Run(kind.String()+"/parked", func(t *testing.T) {
			b := newBarrier(kind, size)
			// Thread 0 never arrives, so every other thread parks.
			done := make(chan bool, size-1)
			for tid := 1; tid < size; tid++ {
				go func(tid int) { done <- b.Wait(tid, nil) }(tid)
			}
			for !parked(b, size) {
				runtime.Gosched()
			}
			b.abort()
			for tid := 1; tid < size; tid++ {
				if returnsAtOnce(t, "parked thread", func() bool { return <-done }) {
					t.Error("an aborted episode reported a releaser")
				}
			}
		})

		t.Run(kind.String()+"/after", func(t *testing.T) {
			b := newBarrier(kind, size)
			b.abort()
			b.abort() // idempotent
			released := 0
			for tid := 0; tid < size; tid++ {
				if returnsAtOnce(t, "late arrival", func() bool { return b.Wait(tid, func() { released++ }) }) {
					t.Errorf("thread %d completed an aborted episode", tid)
				}
			}
			if released != 0 {
				t.Errorf("onRelease ran %d times after abort", released)
			}
		})

		t.Run(kind.String()+"/latch", func(t *testing.T) {
			rt, err := New(WithLayer(NewNativeLayer(size)), WithBarrierKind(kind))
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			team, err := newTeam(rt, size)
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for tid := 0; tid < size; tid++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					team.barrier.Wait(tid, team.onBarrier)
				}(tid)
			}
			wg.Wait()
			team.cancel(errors.New("late cancel"))
			for tid := 0; tid < size; tid++ {
				if returnsAtOnce(t, "next episode", func() bool { return team.barrier.Wait(tid, team.onBarrier) }) {
					t.Errorf("thread %d completed an episode after cancel", tid)
				}
			}
			if got := rt.Stats().Barriers.Load(); got != 1 {
				t.Errorf("Barriers = %d, want 1 (the episode before the cancel)", got)
			}
			rt.releaseTeam(team)
		})
	}
}

// parked reports whether every thread but 0 of a size-thread barrier has
// arrived and is waiting for thread 0.
func parked(b teamBarrier, size int) bool {
	switch b := b.(type) {
	case *centralBarrier:
		return b.arrived.Load() == int32(size-1)
	case *treeBarrier:
		// Both of the root's children have reported their subtrees.
		return len(b.arrive[1]) == 1 && len(b.arrive[2]) == 1
	}
	return false
}

// TestBarrierEpisodeAllocs is a count guard: in a 4-thread region, 64
// barriers allocate nothing over the same region without them — an
// episode is an atomic count and a generation word, not a gate channel.
func TestBarrierEpisodeAllocs(t *testing.T) {
	rt, err := New(WithLayer(NewNativeLayer(4)), WithNumThreads(4))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	region := func(barriers int) float64 {
		body := func(c *Context) {
			for i := 0; i < barriers; i++ {
				c.Barrier()
			}
		}
		return testing.AllocsPerRun(50, func() {
			if err := rt.Parallel(body); err != nil {
				t.Fatal(err)
			}
		})
	}
	base, with := region(0), region(64)
	if extra := with - base; extra > 0 {
		t.Errorf("64 barriers allocated %.0f objects over the bare region (%.0f vs %.0f), want 0", extra, with, base)
	}
}
