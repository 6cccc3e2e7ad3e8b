package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// coverage runs a loop under the given options and verifies every
// iteration executes exactly once.
func coverage(t *testing.T, rt *Runtime, n int, opts LoopOpts) {
	t.Helper()
	counts := make([]atomic.Int32, n)
	if err := rt.Parallel(func(c *Context) {
		c.ForOpts(n, opts, func(lo, hi int) {
			if lo < 0 || hi > n || lo > hi {
				t.Errorf("bad chunk [%d,%d) for n=%d", lo, hi, n)
			}
			for i := lo; i < hi; i++ {
				counts[i].Add(1)
			}
		})
	}); err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if got := counts[i].Load(); got != 1 {
			t.Fatalf("iteration %d ran %d times (opts %+v)", i, got, opts)
		}
	}
}

func TestLoopSchedulesCoverAllIterations(t *testing.T) {
	eachLayer(t, func(t *testing.T, newRT func(...Option) *Runtime) {
		rt := newRT(WithNumThreads(7))
		cases := []LoopOpts{
			{Schedule: ScheduleStatic},
			{Schedule: ScheduleStatic, Chunk: 3},
			{Schedule: ScheduleDynamic},
			{Schedule: ScheduleDynamic, Chunk: 5},
			{Schedule: ScheduleGuided},
			{Schedule: ScheduleGuided, Chunk: 2},
			{Schedule: ScheduleAuto},
			{Schedule: ScheduleDynamic, Chunk: 4, NoWait: true},
		}
		for _, opts := range cases {
			for _, n := range []int{0, 1, 6, 7, 100, 1000} {
				coverage(t, rt, n, opts)
			}
		}
	})
}

func TestStaticBlockDistributionIsContiguousAndBalanced(t *testing.T) {
	rt, _ := New(WithLayer(NewNativeLayer(24)), WithNumThreads(4))
	defer rt.Close()
	type rng struct{ lo, hi int }
	got := make([][]rng, 4)
	var mu sync.Mutex
	_ = rt.Parallel(func(c *Context) {
		c.ForOpts(10, LoopOpts{Schedule: ScheduleStatic}, func(lo, hi int) {
			mu.Lock()
			got[c.ThreadNum()] = append(got[c.ThreadNum()], rng{lo, hi})
			mu.Unlock()
		})
	})
	// 10 iterations over 4 threads: 3,3,2,2 — remainder on leading threads.
	want := []rng{{0, 3}, {3, 6}, {6, 8}, {8, 10}}
	for tid, w := range want {
		if len(got[tid]) != 1 || got[tid][0] != w {
			t.Errorf("tid %d ranges = %v, want [%v]", tid, got[tid], w)
		}
	}
}

func TestStaticChunkedRoundRobin(t *testing.T) {
	rt, _ := New(WithLayer(NewNativeLayer(24)), WithNumThreads(2))
	defer rt.Close()
	owner := make([]int32, 8)
	_ = rt.Parallel(func(c *Context) {
		c.ForOpts(8, LoopOpts{Schedule: ScheduleStatic, Chunk: 2}, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.StoreInt32(&owner[i], int32(c.ThreadNum()))
			}
		})
	})
	// chunks: [0,2) t0, [2,4) t1, [4,6) t0, [6,8) t1
	want := []int32{0, 0, 1, 1, 0, 0, 1, 1}
	for i := range want {
		if owner[i] != want[i] {
			t.Errorf("owner = %v, want %v", owner, want)
			break
		}
	}
}

func TestDynamicScheduleBalancesSkewedWork(t *testing.T) {
	eachLayer(t, func(t *testing.T, newRT func(...Option) *Runtime) {
		rt := newRT(WithNumThreads(4))
		// Iteration 0 parks until every other iteration has executed: with
		// a dynamic schedule the remaining threads must be able to drain
		// the whole iteration space meanwhile. (A static schedule would
		// deadlock here, since iteration 0's owner also owns later ones.)
		var done atomic.Int64
		_ = rt.Parallel(func(c *Context) {
			c.ForOpts(64, LoopOpts{Schedule: ScheduleDynamic}, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					if i == 0 {
						for done.Load() < 63 {
							runtime.Gosched()
						}
					} else {
						done.Add(1)
					}
				}
			})
		})
		if done.Load() != 63 {
			t.Errorf("done = %d, want 63", done.Load())
		}
	})
}

func TestGuidedChunksShrink(t *testing.T) {
	rt, _ := New(WithLayer(NewNativeLayer(24)), WithNumThreads(4))
	defer rt.Close()
	var mu sync.Mutex
	var sizes []int
	_ = rt.Parallel(func(c *Context) {
		c.ForOpts(1000, LoopOpts{Schedule: ScheduleGuided}, func(lo, hi int) {
			mu.Lock()
			sizes = append(sizes, hi-lo)
			mu.Unlock()
		})
	})
	if len(sizes) < 4 {
		t.Fatalf("guided issued only %d chunks", len(sizes))
	}
	maxSize := 0
	total := 0
	for _, s := range sizes {
		total += s
		if s > maxSize {
			maxSize = s
		}
	}
	if total != 1000 {
		t.Errorf("total = %d, want 1000", total)
	}
	// First chunk is remaining/(2·threads) = 125; nothing may exceed it.
	if maxSize > 125 {
		t.Errorf("max chunk = %d, want <= 125", maxSize)
	}
}

func TestForPerIteration(t *testing.T) {
	eachLayer(t, func(t *testing.T, newRT func(...Option) *Runtime) {
		rt := newRT(WithNumThreads(5), WithSchedule(ScheduleDynamic, 2))
		var sum atomic.Int64
		_ = rt.Parallel(func(c *Context) {
			c.For(100, func(i int) { sum.Add(int64(i)) })
		})
		if sum.Load() != 99*100/2 {
			t.Errorf("sum = %d, want %d", sum.Load(), 99*100/2)
		}
	})
}

func TestParallelForConvenience(t *testing.T) {
	eachLayer(t, func(t *testing.T, newRT func(...Option) *Runtime) {
		rt := newRT(WithNumThreads(6))
		// Paper Listing 1: b[i] = (a[i] + a[i-1]) / 2.
		n := 512
		a := make([]float32, n)
		b := make([]float32, n)
		for i := range a {
			a[i] = float32(i)
		}
		if err := rt.ParallelFor(n-1, func(i int) {
			b[i+1] = (a[i+1] + a[i]) / 2.0
		}); err != nil {
			t.Fatal(err)
		}
		for i := 1; i < n; i++ {
			want := (a[i] + a[i-1]) / 2
			if b[i] != want {
				t.Fatalf("b[%d] = %v, want %v", i, b[i], want)
			}
		}
	})
}

func TestNoWaitLoopsDoNotBarrier(t *testing.T) {
	rt, _ := New(WithLayer(NewNativeLayer(24)), WithNumThreads(4))
	defer rt.Close()
	before := rt.Stats().Snapshot().Barriers
	_ = rt.Parallel(func(c *Context) {
		c.ForOpts(16, LoopOpts{Schedule: ScheduleDynamic, NoWait: true}, func(lo, hi int) {})
	})
	after := rt.Stats().Snapshot().Barriers
	// Only the implicit region-end barrier may have fired.
	if after-before != 1 {
		t.Errorf("barriers during nowait loop = %d, want 1 (implicit only)", after-before)
	}
}

func TestConsecutiveLoopsStayMatched(t *testing.T) {
	// Many worksharing constructs in one region: generations must line up
	// and the workshare database must not leak.
	eachLayer(t, func(t *testing.T, newRT func(...Option) *Runtime) {
		rt := newRT(WithNumThreads(4))
		var sum atomic.Int64
		_ = rt.Parallel(func(c *Context) {
			for round := 0; round < 50; round++ {
				c.ForOpts(40, LoopOpts{Schedule: ScheduleDynamic, Chunk: 3}, func(lo, hi int) {
					sum.Add(int64(hi - lo))
				})
			}
		})
		if sum.Load() != 50*40 {
			t.Errorf("sum = %d, want %d", sum.Load(), 50*40)
		}
	})
}

func TestWorkshareDatabaseDrains(t *testing.T) {
	rt, _ := New(WithLayer(NewNativeLayer(24)), WithNumThreads(4))
	defer rt.Close()
	var team *Team
	_ = rt.Parallel(func(c *Context) {
		if c.ThreadNum() == 0 {
			team = c.team
		}
		for round := 0; round < 20; round++ {
			c.ForOpts(16, LoopOpts{Schedule: ScheduleDynamic}, func(lo, hi int) {})
		}
	})
	team.wsMu.Lock()
	live := len(team.ws)
	team.wsMu.Unlock()
	if live != 0 {
		t.Errorf("%d workshares leaked", live)
	}
}

// Property: for any thread count, schedule, chunk and n, every iteration
// runs exactly once.
func TestPropLoopCoverage(t *testing.T) {
	rtCache := map[int]*Runtime{}
	t.Cleanup(func() {
		for _, rt := range rtCache {
			_ = rt.Close()
		}
	})
	f := func(threads8, sched8, chunk8 uint8, n16 uint16) bool {
		threads := int(threads8)%8 + 1
		sched := Schedule(int(sched8) % 4)
		chunk := int(chunk8) % 10
		n := int(n16) % 500
		rt, ok := rtCache[threads]
		if !ok {
			var err error
			rt, err = New(WithLayer(NewNativeLayer(24)), WithNumThreads(threads))
			if err != nil {
				return false
			}
			rtCache[threads] = rt
		}
		counts := make([]int32, n)
		err := rt.Parallel(func(c *Context) {
			c.ForOpts(n, LoopOpts{Schedule: sched, Chunk: chunk}, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&counts[i], 1)
				}
			})
		})
		if err != nil {
			return false
		}
		for i := range counts {
			if counts[i] != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestRuntimeScheduleFixedAtFork: a schedule(runtime) loop takes its
// schedule from the ICVs as they stood at the region's fork. One goroutine
// flips run-sched-var between static and dynamic while another forks 1 000
// regions of c.For(1000); had two threads of one loop read different
// schedules, one would take its static block while another drew from the
// dynamic dispenser, and some iterations would run twice or not at all.
func TestRuntimeScheduleFixedAtFork(t *testing.T) {
	const n, regions = 1000, 1000
	rt, err := New(WithLayer(NewNativeLayer(4)), WithNumThreads(4))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	stop := make(chan struct{})
	flipped := make(chan struct{})
	go func() {
		defer close(flipped)
		for {
			select {
			case <-stop:
				return
			default:
			}
			rt.SetRuntimeSchedule(ScheduleStatic, 0)
			runtime.Gosched()
			rt.SetRuntimeSchedule(ScheduleDynamic, 0)
			runtime.Gosched()
		}
	}()
	defer func() {
		close(stop)
		<-flipped
	}()
	hits := make([]atomic.Int32, n)
	for r := 0; r < regions; r++ {
		if err := rt.Parallel(func(c *Context) {
			c.For(n, func(i int) { hits[i].Add(1) })
		}); err != nil {
			t.Fatal(err)
		}
		for i := range hits {
			if got := hits[i].Swap(0); got != 1 {
				t.Fatalf("region %d: iteration %d ran %d times, want 1", r, i, got)
			}
		}
	}
}
