package main

import (
	"fmt"
	"sync"
	"time"

	"openmpmca/internal/core"
	"openmpmca/internal/mrapi"
	"openmpmca/internal/platform"
	"openmpmca/internal/syncq"
)

// ompPairs is the number of native/MCA block pairs per segment; the
// block length is the segment divided over them. Whole-mix timing of
// interleaved ABBA blocks keeps the median-of-pairs ratio steady where
// the legacy Table I harness, differencing single cells, swings 0.5–2.8.
const ompPairs = 10

const (
	layerNative = "native"
	layerMCA    = "mca"
)

func newOMPRuntime(layer string) (*core.Runtime, error) {
	board := platform.T4240RDB()
	var l core.ThreadLayer
	if layer == layerMCA {
		m, err := core.NewMCALayer(board.NewSystem())
		if err != nil {
			return nil, err
		}
		l = m
	} else {
		l = core.NewNativeLayer(board.HWThreads())
	}
	return core.New(core.WithLayer(l), core.WithNumThreads(mixTeam))
}

// mixScratch is the memory one mix writes; reused across mixes so the
// timed loop allocates nothing of its own.
type mixScratch struct {
	out   [mixForN]uint64
	slots [mixTasks]uint64
}

// runMix executes one mix on rt and returns its checksum.
func runMix(rt *core.Runtime, m *mixInput, sc *mixScratch) (uint64, error) {
	if err := rt.Parallel(func(*core.Context) {}); err != nil {
		return 0, err
	}
	var crit, single, red uint64
	err := rt.Parallel(func(c *core.Context) {
		tid := c.ThreadNum()
		c.ForOpts(mixForN, core.LoopOpts{Schedule: core.ScheduleStatic}, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				sc.out[i] = mixFn(m.A[i])
			}
		})
		for i := 0; i < mixBarriers; i++ {
			c.Barrier()
		}
		for i := 0; i < mixCrits; i++ {
			c.Critical(func() { crit += uint64(tid + 1) })
		}
		c.Single(func() { single = m.A[0] })
		r := core.Reduce(c, mixReduceN, uint64(0),
			func(a, b uint64) uint64 { return a + b },
			func(lo, hi int) uint64 {
				var s uint64
				for _, v := range m.R[lo:hi] {
					s += v
				}
				return s
			})
		if tid == 0 {
			red = r
		}
		per := mixTasks / mixTeam
		for j := tid * per; j < (tid+1)*per; j++ {
			c.Task(func() { sc.slots[j] = mixFn(m.T[j]) * uint64(j+1) })
		}
		c.TaskWait()
	})
	if err != nil {
		return 0, err
	}
	sum := crit + single + red
	for _, v := range sc.out {
		sum += v
	}
	for _, v := range sc.slots {
		sum += v
	}
	return sum, nil
}

// mixRunner drives mixes on one runtime and checks every checksum.
type mixRunner struct {
	rt   *core.Runtime
	in   *inputs
	sc   mixScratch
	next int
	tally
}

// one runs the next mix of the pool and returns its time in ms.
func (r *mixRunner) one() float64 {
	m := &r.in.mixes[r.next%len(r.in.mixes)]
	r.next++
	t0 := time.Now()
	got, err := runMix(r.rt, m, &r.sc)
	ms := msSince(t0)
	if err == nil && got != m.Want {
		err = fmt.Errorf("mix checksum %#x, want %#x", got, m.Want)
	}
	r.check(err)
	return ms
}

// block runs mixes for d and returns each mix's time in ms plus the
// block's mixes per second.
func (r *mixRunner) block(d time.Duration) (ms []float64, perSec float64) {
	t0 := time.Now()
	for time.Since(t0) < d {
		ms = append(ms, r.one())
	}
	return ms, float64(len(ms)) / time.Since(t0).Seconds()
}

// construct is one OpenMP construct timed on its own in the traced run:
// body is what every thread of the team executes reps times, with thread
// 0 holding the clock around the public calls.
type construct struct {
	name string
	body func(c *core.Context, m *mixInput, sc *mixScratch)
}

var constructs = []construct{
	{"for", func(c *core.Context, m *mixInput, sc *mixScratch) {
		c.ForOpts(mixForN, core.LoopOpts{Schedule: core.ScheduleStatic}, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				sc.out[i] = mixFn(m.A[i])
			}
		})
	}},
	{"barrier", func(c *core.Context, _ *mixInput, _ *mixScratch) { c.Barrier() }},
	{"critical", func(c *core.Context, _ *mixInput, sc *mixScratch) { c.Critical(func() { sc.out[0]++ }) }},
	{"single", func(c *core.Context, _ *mixInput, sc *mixScratch) { c.Single(func() { sc.out[1]++ }) }},
	{"reduction", func(c *core.Context, m *mixInput, _ *mixScratch) {
		core.Reduce(c, mixReduceN, uint64(0),
			func(a, b uint64) uint64 { return a + b },
			func(lo, hi int) uint64 {
				var s uint64
				for _, v := range m.R[lo:hi] {
					s += v
				}
				return s
			})
	}},
	// task is one batch as the mix issues it: 32 tasks across the team,
	// then taskwait.
	{"task", func(c *core.Context, m *mixInput, sc *mixScratch) {
		per := mixTasks / mixTeam
		for j := c.ThreadNum() * per; j < (c.ThreadNum()+1)*per; j++ {
			c.Task(func() { sc.slots[j] = mixFn(m.T[j]) })
		}
		c.TaskWait()
	}},
}

// constructNames lists every construct with a core.<c>_us / _ratio pair.
var constructNames = []string{"parallel", "for", "barrier", "critical", "single", "reduction", "task"}

// timeConstructs returns µs per call of every construct on rt.
func timeConstructs(rt *core.Runtime, m *mixInput, reps int) (map[string]float64, error) {
	out := make(map[string]float64)
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		if err := rt.Parallel(func(*core.Context) {}); err != nil {
			return nil, err
		}
	}
	out["parallel"] = float64(time.Since(t0).Microseconds()) / float64(reps)
	var sc mixScratch
	for _, k := range constructs {
		var el time.Duration
		err := rt.Parallel(func(c *core.Context) {
			c.Barrier()
			t0 := time.Now()
			for i := 0; i < reps; i++ {
				k.body(c, m, &sc)
			}
			if c.ThreadNum() == 0 {
				el = time.Since(t0)
			}
		})
		if err != nil {
			return nil, err
		}
		out[k.name] = float64(el.Nanoseconds()) / 1e3 / float64(reps)
	}
	return out, nil
}

// mutexPairNs times an uncontended MRAPI mutex lock+unlock.
func mutexPairNs(reps int) (float64, error) {
	node, err := mrapi.NewSystem(nil).Initialize(0, 1, nil)
	if err != nil {
		return 0, err
	}
	defer node.Finalize()
	mu, err := node.MutexCreate(1, nil)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		key, err := mu.Lock(node, mrapi.TimeoutInfinite)
		if err != nil {
			return 0, err
		}
		if err := mu.Unlock(node, key); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(reps), nil
}

// waitSignalNs times one syncq Wait/Signal hand-off between two
// goroutines: half a ping-pong round trip.
func waitSignalNs(reps int) float64 {
	var mu sync.Mutex
	var ping, pong syncq.WaitQueue
	turn := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < reps; i++ {
			mu.Lock()
			for turn != 1 {
				ping.Wait(&mu, 0, true)
			}
			turn = 0
			pong.Signal()
			mu.Unlock()
		}
	}()
	t0 := time.Now()
	for i := 0; i < reps; i++ {
		mu.Lock()
		turn = 1
		ping.Signal()
		for turn != 0 {
			pong.Wait(&mu, 0, true)
		}
		mu.Unlock()
	}
	el := time.Since(t0)
	<-done
	return float64(el.Nanoseconds()) / float64(2*reps)
}
