package core

import (
	"sync/atomic"
	"testing"
)

func TestCriticalMutualExclusion(t *testing.T) {
	eachLayer(t, func(t *testing.T, newRT func(...Option) *Runtime) {
		rt := newRT(WithNumThreads(8))
		counter := 0 // deliberately unsynchronized; Critical must protect it
		const perThread = 500
		_ = rt.Parallel(func(c *Context) {
			for i := 0; i < perThread; i++ {
				c.Critical(func() { counter++ })
			}
		})
		if counter != 8*perThread {
			t.Errorf("counter = %d, want %d (critical leaked updates)", counter, 8*perThread)
		}
		if got := rt.Stats().Snapshot().Crits; got != 8*perThread {
			t.Errorf("Crits stat = %d", got)
		}
	})
}

func TestNamedCriticalsAreIndependent(t *testing.T) {
	eachLayer(t, func(t *testing.T, newRT func(...Option) *Runtime) {
		rt := newRT(WithNumThreads(4))
		var aCount, bCount int
		_ = rt.Parallel(func(c *Context) {
			for i := 0; i < 200; i++ {
				c.CriticalNamed("a", func() { aCount++ })
				c.CriticalNamed("b", func() { bCount++ })
			}
		})
		if aCount != 800 || bCount != 800 {
			t.Errorf("counts = %d,%d, want 800,800", aCount, bCount)
		}
	})
}

func TestCriticalSameNameAcrossRegions(t *testing.T) {
	rt, _ := New(WithLayer(NewNativeLayer(24)), WithNumThreads(4))
	defer rt.Close()
	counter := 0
	for r := 0; r < 3; r++ {
		_ = rt.Parallel(func(c *Context) {
			for i := 0; i < 100; i++ {
				c.Critical(func() { counter++ })
			}
		})
	}
	if counter != 1200 {
		t.Errorf("counter = %d, want 1200", counter)
	}
	// Only one mutex may have been created for the unnamed section.
	if n := len(*rt.criticals.Load()); n != 1 {
		t.Errorf("criticals map has %d entries, want 1", n)
	}
}

func TestSingleExactlyOneWinner(t *testing.T) {
	eachLayer(t, func(t *testing.T, newRT func(...Option) *Runtime) {
		rt := newRT(WithNumThreads(8))
		var winners atomic.Int32
		var trueReturns atomic.Int32
		_ = rt.Parallel(func(c *Context) {
			for i := 0; i < 20; i++ {
				if c.Single(func() { winners.Add(1) }) {
					trueReturns.Add(1)
				}
			}
		})
		if winners.Load() != 20 {
			t.Errorf("single bodies ran %d times, want 20", winners.Load())
		}
		if trueReturns.Load() != 20 {
			t.Errorf("true returns = %d, want 20", trueReturns.Load())
		}
	})
}

func TestSingleBarrierPublishesWinnerWrites(t *testing.T) {
	eachLayer(t, func(t *testing.T, newRT func(...Option) *Runtime) {
		rt := newRT(WithNumThreads(6))
		shared := 0
		ok := true
		_ = rt.Parallel(func(c *Context) {
			for i := 1; i <= 30; i++ {
				c.Single(func() { shared = i })
				if shared != i { // visible to all threads after the barrier
					ok = false
				}
				c.Barrier()
			}
		})
		if !ok {
			t.Error("single's write was not visible after its barrier")
		}
	})
}

func TestSingleNoWaitDoesNotBarrier(t *testing.T) {
	rt, _ := New(WithLayer(NewNativeLayer(24)), WithNumThreads(4))
	defer rt.Close()
	before := rt.Stats().Snapshot().Barriers
	var ran atomic.Int32
	_ = rt.Parallel(func(c *Context) {
		c.SingleNoWait(func() { ran.Add(1) })
	})
	if ran.Load() != 1 {
		t.Errorf("single ran %d times", ran.Load())
	}
	if got := rt.Stats().Snapshot().Barriers - before; got != 1 {
		t.Errorf("barriers = %d, want 1 (implicit only)", got)
	}
}

func TestSectionsEachRunsOnce(t *testing.T) {
	eachLayer(t, func(t *testing.T, newRT func(...Option) *Runtime) {
		rt := newRT(WithNumThreads(3))
		var counts [7]atomic.Int32
		secs := make([]func(), 7)
		for i := range secs {
			i := i
			secs[i] = func() { counts[i].Add(1) }
		}
		_ = rt.Parallel(func(c *Context) {
			c.Sections(secs...)
		})
		for i := range counts {
			if counts[i].Load() != 1 {
				t.Errorf("section %d ran %d times", i, counts[i].Load())
			}
		}
	})
}

func TestSectionsMoreThreadsThanSections(t *testing.T) {
	rt, _ := New(WithLayer(NewNativeLayer(24)), WithNumThreads(8))
	defer rt.Close()
	var n atomic.Int32
	_ = rt.Parallel(func(c *Context) {
		c.Sections(func() { n.Add(1) }, func() { n.Add(1) })
	})
	if n.Load() != 2 {
		t.Errorf("sections ran %d, want 2", n.Load())
	}
}

func TestEmptySections(t *testing.T) {
	rt, _ := New(WithLayer(NewNativeLayer(24)), WithNumThreads(4))
	defer rt.Close()
	if err := rt.Parallel(func(c *Context) { c.Sections() }); err != nil {
		t.Fatal(err)
	}
}

func TestBarrierSeparatesPhases(t *testing.T) {
	eachLayer(t, func(t *testing.T, newRT func(...Option) *Runtime) {
		rt := newRT(WithNumThreads(8))
		const rounds = 50
		phase := make([]atomic.Int32, rounds)
		violated := atomic.Bool{}
		_ = rt.Parallel(func(c *Context) {
			for r := 0; r < rounds; r++ {
				phase[r].Add(1)
				c.Barrier()
				// After the barrier every thread must see all 8 arrivals.
				if phase[r].Load() != 8 {
					violated.Store(true)
				}
				c.Barrier()
			}
		})
		if violated.Load() {
			t.Error("a thread passed the barrier before all arrivals")
		}
	})
}

func TestRuntimeLocks(t *testing.T) {
	eachLayer(t, func(t *testing.T, newRT func(...Option) *Runtime) {
		rt := newRT(WithNumThreads(6))
		l, err := rt.NewLock()
		if err != nil {
			t.Fatal(err)
		}
		counter := 0
		_ = rt.Parallel(func(c *Context) {
			for i := 0; i < 300; i++ {
				l.Lock(c)
				counter++
				l.Unlock(c)
			}
		})
		if counter != 1800 {
			t.Errorf("counter = %d, want 1800", counter)
		}
		// Lock usable from the initial thread outside regions.
		l.Lock(nil)
		counter++
		l.Unlock(nil)
		if counter != 1801 {
			t.Errorf("counter = %d", counter)
		}
	})
}

func TestBrokenMutexReproducesPaperBug(t *testing.T) {
	// §6A: the validation suite caught a non-functional synchronization
	// primitive that made critical fail. The fault injection must actually
	// produce a mutex that does not exclude.
	bm := brokenMutex{}
	bm.Lock(0)
	bm.Lock(1) // a real mutex would block here
	bm.Unlock(0)
	bm.Unlock(1)
}

func TestSingleCopyBroadcastsWinnerValue(t *testing.T) {
	eachLayer(t, func(t *testing.T, newRT func(...Option) *Runtime) {
		rt := newRT(WithNumThreads(8))
		var execs atomic.Int32
		var wrong atomic.Int32
		_ = rt.Parallel(func(c *Context) {
			for round := 1; round <= 20; round++ {
				v := SingleCopy(c, func() int {
					execs.Add(1)
					return round * 100
				})
				if v != round*100 {
					wrong.Add(1)
				}
			}
		})
		if execs.Load() != 20 {
			t.Errorf("single bodies ran %d times, want 20", execs.Load())
		}
		if wrong.Load() != 0 {
			t.Errorf("%d threads observed a wrong broadcast value", wrong.Load())
		}
	})
}

func TestSingleCopyHeterogeneousTypes(t *testing.T) {
	rt, _ := New(WithLayer(NewNativeLayer(8)), WithNumThreads(4))
	defer rt.Close()
	_ = rt.Parallel(func(c *Context) {
		s := SingleCopy(c, func() string { return "broadcast" })
		if s != "broadcast" {
			t.Errorf("string copy = %q", s)
		}
		sl := SingleCopy(c, func() []int { return []int{1, 2, 3} })
		if len(sl) != 3 {
			t.Errorf("slice copy = %v", sl)
		}
	})
}
