// Package validation reimplements the methodology of the OpenMP
// validation suite the paper used to shake out its runtime (§6A, ref
// [49]): a battery of semantic conformance checks, each run repeatedly to
// expose races, and each paired where meaningful with a crosscheck — a
// deliberately broken variant that MUST fail, proving the check can
// detect the failure mode it guards.
//
// The paper reports that this suite caught "a non-functional
// synchronization primitive in MCA-libGOMP that caused an OpenMP critical
// construct to fail"; the regression for that exact bug lives in
// BrokenMutexRegression, which injects the fault into the MCA layer and
// demands the critical check notice.
package validation

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"openmpmca/internal/core"
	"openmpmca/internal/platform"
)

// Test is one conformance check.
type Test struct {
	// Name identifies the checked construct/semantic.
	Name string
	// Run executes the check once under rt, returning nil when the
	// semantic held.
	Run func(rt *core.Runtime) error
	// Cross, if non-nil, executes a deliberately broken variant; the
	// suite requires it to return an error (the check must be able to
	// fail).
	Cross func(rt *core.Runtime) error
}

// Outcome is one test's aggregated result over repetitions.
type Outcome struct {
	Name string
	// Runs and Failures count Run executions and their failures.
	Runs, Failures int
	// CrossOK reports that the crosscheck failed as required (true when
	// no crosscheck exists).
	CrossOK bool
	// Detail carries the first failure message, if any.
	Detail string
}

// Passed reports overall success: no failures and a working crosscheck.
func (o Outcome) Passed() bool { return o.Failures == 0 && o.CrossOK }

// amplify widens race windows with a scheduler yield, so a construct that
// fails to exclude or order shows it on few cores too. The crosschecks do
// not rely on it: each forces its broken interleaving with a gate.
func amplify() { runtime.Gosched() }

const teamSize = 8

// Suite returns the full battery, sorted by name.
func Suite() []Test {
	tests := []Test{
		{Name: "parallel.team", Run: checkParallelTeam},
		{Name: "parallel.ids", Run: checkThreadIDs},
		{Name: "for.static", Run: checkForSchedule(core.LoopOpts{Schedule: core.ScheduleStatic})},
		{Name: "for.static.chunked", Run: checkForSchedule(core.LoopOpts{Schedule: core.ScheduleStatic, Chunk: 3})},
		{Name: "for.dynamic", Run: checkForSchedule(core.LoopOpts{Schedule: core.ScheduleDynamic, Chunk: 2})},
		{Name: "for.guided", Run: checkForSchedule(core.LoopOpts{Schedule: core.ScheduleGuided})},
		{Name: "barrier", Run: checkBarrier, Cross: crossBarrier},
		{Name: "single", Run: checkSingle, Cross: crossSingle},
		{Name: "master", Run: checkMaster},
		{Name: "critical", Run: checkCritical, Cross: crossExclusion("critical")},
		{Name: "lock", Run: checkLock, Cross: crossExclusion("lock")},
		{Name: "sections", Run: checkSections},
		{Name: "reduction.sum", Run: checkReductionSum},
		{Name: "reduction.order", Run: checkReductionOrder},
		{Name: "task", Run: checkTask},
		{Name: "taskwait", Run: checkTaskWait},
		{Name: "taskgroup", Run: checkTaskgroup},
		{Name: "schedule.runtime", Run: checkRuntimeSchedule},
		{Name: "ordered", Run: checkOrdered, Cross: crossOrdered},
		{Name: "lock.nested", Run: checkNestLock},
		{Name: "atomic", Run: checkAtomic},
		{Name: "single.copyprivate", Run: checkSingleCopy},
		{Name: "parallel.nested", Run: checkNestedParallel},
		{Name: "threadprivate", Run: checkThreadPrivate},
	}
	sort.Slice(tests, func(i, j int) bool { return tests[i].Name < tests[j].Name })
	return tests
}

// RunAll executes every suite test `reps` times against fresh runtimes
// from mk, plus one crosscheck execution each.
func RunAll(mk func() (*core.Runtime, error), reps int) ([]Outcome, error) {
	if reps <= 0 {
		reps = 3
	}
	var out []Outcome
	for _, tst := range Suite() {
		o := Outcome{Name: tst.Name, CrossOK: true}
		for r := 0; r < reps; r++ {
			rt, err := mk()
			if err != nil {
				return nil, fmt.Errorf("validation: building runtime: %w", err)
			}
			runErr := tst.Run(rt)
			_ = rt.Close()
			o.Runs++
			if runErr != nil {
				o.Failures++
				if o.Detail == "" {
					o.Detail = runErr.Error()
				}
			}
		}
		if tst.Cross != nil {
			rt, err := mk()
			if err != nil {
				return nil, err
			}
			crossErr := tst.Cross(rt)
			_ = rt.Close()
			if crossErr == nil {
				o.CrossOK = false
				if o.Detail == "" {
					o.Detail = "crosscheck did not fail"
				}
			}
		}
		out = append(out, o)
	}
	return out, nil
}

// BrokenMutexRegression reproduces the paper's §6A find: with the MCA
// layer's mutex fault injected, the critical check must fail; with the
// fixed layer it must pass. It returns nil when both halves behave.
func BrokenMutexRegression(board *platform.Board) error {
	mkBroken := func() (*core.Runtime, error) {
		l, err := core.NewMCALayer(board.NewSystem(), core.WithBrokenMutex())
		if err != nil {
			return nil, err
		}
		return core.New(core.WithLayer(l), core.WithNumThreads(teamSize))
	}
	mkFixed := func() (*core.Runtime, error) {
		l, err := core.NewMCALayer(board.NewSystem())
		if err != nil {
			return nil, err
		}
		return core.New(core.WithLayer(l), core.WithNumThreads(teamSize))
	}

	rt, err := mkBroken()
	if err != nil {
		return err
	}
	brokenErr := checkCritical(rt)
	_ = rt.Close()
	if brokenErr == nil {
		return errors.New("validation: critical check did NOT detect the broken MRAPI mutex")
	}

	rt, err = mkFixed()
	if err != nil {
		return err
	}
	fixedErr := checkCritical(rt)
	_ = rt.Close()
	if fixedErr != nil {
		return fmt.Errorf("validation: critical check fails on the fixed layer: %w", fixedErr)
	}
	return nil
}

// ----- individual checks -----

func checkParallelTeam(rt *core.Runtime) error {
	var n atomic.Int32
	if err := rt.ParallelN(teamSize, func(c *core.Context) { n.Add(1) }); err != nil {
		return err
	}
	if n.Load() != teamSize {
		return fmt.Errorf("parallel: %d activations, want %d", n.Load(), teamSize)
	}
	return nil
}

func checkThreadIDs(rt *core.Runtime) error {
	seen := make([]atomic.Int32, teamSize)
	err := rt.ParallelN(teamSize, func(c *core.Context) {
		if c.NumThreads() != teamSize {
			return
		}
		if tid := c.ThreadNum(); tid >= 0 && tid < teamSize {
			seen[tid].Add(1)
		}
	})
	if err != nil {
		return err
	}
	for tid := range seen {
		if seen[tid].Load() != 1 {
			return fmt.Errorf("thread id %d seen %d times", tid, seen[tid].Load())
		}
	}
	return nil
}

func checkForSchedule(opts core.LoopOpts) func(rt *core.Runtime) error {
	return func(rt *core.Runtime) error {
		const n = 997 // prime, to stress chunk remainders
		counts := make([]int32, n)
		err := rt.ParallelN(teamSize, func(c *core.Context) {
			c.ForOpts(n, opts, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&counts[i], 1)
				}
			})
		})
		if err != nil {
			return err
		}
		for i, cnt := range counts {
			if cnt != 1 {
				return fmt.Errorf("for(%v): iteration %d ran %d times", opts.Schedule, i, cnt)
			}
		}
		return nil
	}
}

func checkBarrier(rt *core.Runtime) error {
	const rounds = 20
	var bad atomic.Bool
	counters := make([]atomic.Int32, rounds)
	err := rt.ParallelN(teamSize, func(c *core.Context) {
		for r := 0; r < rounds; r++ {
			counters[r].Add(1)
			c.Barrier()
			if counters[r].Load() != teamSize {
				bad.Store(true)
			}
			c.Barrier()
		}
	})
	if err != nil {
		return err
	}
	if bad.Load() {
		return errors.New("barrier: thread proceeded before full arrival")
	}
	return nil
}

// crossBarrier omits the barrier and forces the interleaving a barrier
// would forbid: the last thread is held back until thread 0 has looked at
// the count, so thread 0 always observes a partial arrival.
func crossBarrier(rt *core.Runtime) error {
	var bad atomic.Bool
	var arrived atomic.Int32
	looked := make(chan struct{})
	err := rt.ParallelN(teamSize, func(c *core.Context) {
		n := c.NumThreads()
		if n < 2 {
			return // nobody to arrive late; the crosscheck reports itself broken
		}
		if c.ThreadNum() == n-1 {
			<-looked
		}
		arrived.Add(1)
		// no barrier here — the bug under test
		if int(arrived.Load()) != n {
			bad.Store(true)
		}
		if c.ThreadNum() == 0 {
			close(looked)
		}
	})
	if err != nil {
		return err
	}
	if bad.Load() {
		return errors.New("barrier missing (expected)")
	}
	return nil
}

func checkSingle(rt *core.Runtime) error {
	var execs atomic.Int32
	const rounds = 25
	err := rt.ParallelN(teamSize, func(c *core.Context) {
		for r := 0; r < rounds; r++ {
			c.Single(func() { execs.Add(1) })
		}
	})
	if err != nil {
		return err
	}
	if execs.Load() != rounds {
		return fmt.Errorf("single: %d executions, want %d", execs.Load(), rounds)
	}
	return nil
}

// crossSingle runs the body unconditionally — every thread executes, so
// the exactly-once property must be seen to break.
func crossSingle(rt *core.Runtime) error {
	var execs atomic.Int32
	const rounds = 25
	err := rt.ParallelN(teamSize, func(c *core.Context) {
		for r := 0; r < rounds; r++ {
			execs.Add(1) // the bug: no single construct
			c.Barrier()
		}
	})
	if err != nil {
		return err
	}
	if execs.Load() != rounds {
		return errors.New("single missing (expected)")
	}
	return nil
}

func checkMaster(rt *core.Runtime) error {
	var execs atomic.Int32
	var wrongTid atomic.Bool
	err := rt.ParallelN(teamSize, func(c *core.Context) {
		c.Master(func() {
			execs.Add(1)
			if c.ThreadNum() != 0 {
				wrongTid.Store(true)
			}
		})
	})
	if err != nil {
		return err
	}
	if execs.Load() != 1 || wrongTid.Load() {
		return fmt.Errorf("master: %d executions (wrongTid=%v)", execs.Load(), wrongTid.Load())
	}
	return nil
}

// criticalBody is the shared amplified read-modify-write used by the
// critical/lock checks and the broken-mutex regression. The split
// load/yield/store loses updates whenever two threads overlap — but uses
// atomics, so a missing lock shows up as a wrong count rather than as a
// data race (keeping the deliberately broken crosschecks clean under the
// race detector).
func criticalBody(counter *atomic.Int64) {
	v := counter.Load()
	amplify()
	counter.Store(v + 1)
}

func checkCritical(rt *core.Runtime) error {
	var counter atomic.Int64
	const perThread = 50
	err := rt.ParallelN(teamSize, func(c *core.Context) {
		for i := 0; i < perThread; i++ {
			c.Critical(func() { criticalBody(&counter) })
		}
	})
	if err != nil {
		return err
	}
	if counter.Load() != teamSize*perThread {
		return fmt.Errorf("critical: counter %d, want %d", counter.Load(), teamSize*perThread)
	}
	return nil
}

// crossExclusion runs the critical/lock workload with the mutual
// exclusion elided, and forces the overlap that permits: thread 0 reads
// the counter, thread 1 then completes a whole increment, and only then
// does thread 0 write its stale value back. One update is lost on every
// run, whatever the scheduler does.
func crossExclusion(construct string) func(rt *core.Runtime) error {
	return func(rt *core.Runtime) error {
		var counter atomic.Int64
		const perThread = 50
		read, bumped := make(chan struct{}), make(chan struct{})
		err := rt.ParallelN(teamSize, func(c *core.Context) {
			for i := 0; i < perThread; i++ {
				switch {
				case i == 0 && c.ThreadNum() == 0 && c.NumThreads() > 1:
					v := counter.Load()
					close(read)
					<-bumped
					counter.Store(v + 1)
				case i == 0 && c.ThreadNum() == 1:
					<-read
					criticalBody(&counter)
					close(bumped)
				default:
					criticalBody(&counter) // the bug: no critical, no lock
				}
			}
		})
		if err != nil {
			return err
		}
		if counter.Load() != teamSize*perThread {
			return errors.New(construct + " missing (expected)")
		}
		return nil
	}
}

func checkLock(rt *core.Runtime) error {
	l, err := rt.NewLock()
	if err != nil {
		return err
	}
	var counter atomic.Int64
	const perThread = 50
	err = rt.ParallelN(teamSize, func(c *core.Context) {
		for i := 0; i < perThread; i++ {
			l.Lock(c)
			criticalBody(&counter)
			l.Unlock(c)
		}
	})
	if err != nil {
		return err
	}
	if counter.Load() != teamSize*perThread {
		return fmt.Errorf("lock: counter %d, want %d", counter.Load(), teamSize*perThread)
	}
	return nil
}

func checkSections(rt *core.Runtime) error {
	var counts [5]atomic.Int32
	secs := make([]func(), len(counts))
	for i := range secs {
		i := i
		secs[i] = func() { counts[i].Add(1) }
	}
	if err := rt.ParallelN(teamSize, func(c *core.Context) { c.Sections(secs...) }); err != nil {
		return err
	}
	for i := range counts {
		if counts[i].Load() != 1 {
			return fmt.Errorf("sections: section %d ran %d times", i, counts[i].Load())
		}
	}
	return nil
}

func checkReductionSum(rt *core.Runtime) error {
	const n = 4096
	var got int64
	err := rt.ParallelN(teamSize, func(c *core.Context) {
		r := core.Reduce(c, n, int64(0),
			func(a, b int64) int64 { return a + b },
			func(lo, hi int) int64 {
				var s int64
				for i := lo; i < hi; i++ {
					s += int64(i)
				}
				return s
			})
		if c.ThreadNum() == 0 {
			got = r
		}
	})
	if err != nil {
		return err
	}
	if want := int64(n * (n - 1) / 2); got != want {
		return fmt.Errorf("reduction: %d, want %d", got, want)
	}
	return nil
}

func checkReductionOrder(rt *core.Runtime) error {
	const text = "abcdefghijklmnopqrstuvwxyz0123456789"
	var got string
	err := rt.ParallelN(teamSize, func(c *core.Context) {
		r := core.Reduce(c, len(text), "",
			func(a, b string) string { return a + b },
			func(lo, hi int) string { return text[lo:hi] })
		if c.ThreadNum() == 0 {
			got = r
		}
	})
	if err != nil {
		return err
	}
	if got != text {
		return fmt.Errorf("reduction order: %q", got)
	}
	return nil
}

func checkTask(rt *core.Runtime) error {
	var ran atomic.Int32
	err := rt.ParallelN(teamSize, func(c *core.Context) {
		c.SingleNoWait(func() {
			for i := 0; i < 64; i++ {
				c.Task(func() { ran.Add(1) })
			}
		})
	})
	if err != nil {
		return err
	}
	if ran.Load() != 64 {
		return fmt.Errorf("task: %d ran, want 64", ran.Load())
	}
	return nil
}

func checkTaskWait(rt *core.Runtime) error {
	var bad atomic.Bool
	err := rt.ParallelN(teamSize, func(c *core.Context) {
		c.SingleNoWait(func() {
			var done atomic.Int32
			for i := 0; i < 32; i++ {
				c.Task(func() { done.Add(1) })
			}
			c.TaskWait()
			if done.Load() != 32 {
				bad.Store(true)
			}
		})
	})
	if err != nil {
		return err
	}
	if bad.Load() {
		return errors.New("taskwait returned early")
	}
	return nil
}

func checkTaskgroup(rt *core.Runtime) error {
	var bad atomic.Bool
	err := rt.ParallelN(teamSize, func(c *core.Context) {
		c.SingleNoWait(func() {
			var done atomic.Int32
			c.Taskgroup(func() {
				for i := 0; i < 16; i++ {
					c.Task(func() {
						amplify()
						done.Add(1)
					})
				}
			})
			if done.Load() != 16 {
				bad.Store(true)
			}
		})
	})
	if err != nil {
		return err
	}
	if bad.Load() {
		return errors.New("taskgroup returned early")
	}
	return nil
}

func checkOrdered(rt *core.Runtime) error {
	const n = 96
	order := make([]int, 0, n)
	err := rt.ParallelN(teamSize, func(c *core.Context) {
		c.ForOpts(n, core.LoopOpts{Schedule: core.ScheduleDynamic, Ordered: true}, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				c.Ordered(i, func() {
					amplify()
					order = append(order, i)
				})
			}
		})
	})
	if err != nil {
		return err
	}
	if len(order) != n {
		return fmt.Errorf("ordered: %d sections ran, want %d", len(order), n)
	}
	for i, v := range order {
		if v != i {
			return fmt.Errorf("ordered: position %d saw iteration %d", i, v)
		}
	}
	return nil
}

// crossOrdered drops the ordered construct and walks each chunk backwards
// — without Ordered sequencing, the recorded order is guaranteed
// non-ascending independent of scheduler fairness.
func crossOrdered(rt *core.Runtime) error {
	const n = 96
	var mu sync.Mutex
	order := make([]int, 0, n)
	err := rt.ParallelN(teamSize, func(c *core.Context) {
		c.ForOpts(n, core.LoopOpts{Schedule: core.ScheduleDynamic, Chunk: 4}, func(lo, hi int) {
			for i := hi - 1; i >= lo; i-- {
				amplify() // the bug: no ordering
				mu.Lock()
				order = append(order, i)
				mu.Unlock()
			}
		})
	})
	if err != nil {
		return err
	}
	for i, v := range order {
		if v != i {
			return errors.New("ordered missing (expected)")
		}
	}
	return nil
}

func checkNestLock(rt *core.Runtime) error {
	l, err := rt.NewNestLock()
	if err != nil {
		return err
	}
	var counter atomic.Int64
	err = rt.ParallelN(teamSize, func(c *core.Context) {
		for i := 0; i < 40; i++ {
			l.Lock(c)
			l.Lock(c)
			criticalBody(&counter)
			l.Unlock(c)
			l.Unlock(c)
		}
	})
	if err != nil {
		return err
	}
	if counter.Load() != teamSize*40 {
		return fmt.Errorf("nest lock: counter %d, want %d", counter.Load(), teamSize*40)
	}
	if l.Depth() != 0 {
		return fmt.Errorf("nest lock: residual depth %d", l.Depth())
	}
	return nil
}

func checkAtomic(rt *core.Runtime) error {
	var acc core.AtomicFloat64
	var peak core.AtomicFloat64
	err := rt.ParallelN(teamSize, func(c *core.Context) {
		for i := 1; i <= 250; i++ {
			acc.Add(0.5)
			peak.Max(float64(c.ThreadNum()*1000 + i))
		}
	})
	if err != nil {
		return err
	}
	if got := acc.Load(); got != float64(teamSize)*125 {
		return fmt.Errorf("atomic add: %v, want %v", got, float64(teamSize)*125)
	}
	if got := peak.Load(); got != float64((teamSize-1)*1000+250) {
		return fmt.Errorf("atomic max: %v", got)
	}
	return nil
}

func checkSingleCopy(rt *core.Runtime) error {
	var bad atomic.Int32
	err := rt.ParallelN(teamSize, func(c *core.Context) {
		for round := 1; round <= 15; round++ {
			v := core.SingleCopy(c, func() int { return round * 7 })
			if v != round*7 {
				bad.Add(1)
			}
		}
	})
	if err != nil {
		return err
	}
	if bad.Load() != 0 {
		return fmt.Errorf("copyprivate: %d wrong observations", bad.Load())
	}
	return nil
}

func checkNestedParallel(rt *core.Runtime) error {
	var inner atomic.Int32
	err := rt.ParallelN(teamSize, func(c *core.Context) {
		if err := c.Parallel(func(ic *core.Context) {
			if ic.NumThreads() != 1 {
				inner.Store(-1)
				return
			}
			inner.Add(1)
			ic.Barrier()
		}); err != nil {
			inner.Store(-1)
		}
	})
	if err != nil {
		return err
	}
	if inner.Load() != teamSize {
		return fmt.Errorf("nested parallel: %d serialized inner regions, want %d", inner.Load(), teamSize)
	}
	return nil
}

func checkRuntimeSchedule(rt *core.Runtime) error {
	rt.SetRuntimeSchedule(core.ScheduleDynamic, 4)
	before := rt.Stats().Snapshot().Chunks
	const n = 256
	var sum atomic.Int64
	err := rt.ParallelN(teamSize, func(c *core.Context) {
		c.For(n, func(i int) { sum.Add(1) })
	})
	if err != nil {
		return err
	}
	if sum.Load() != n {
		return fmt.Errorf("schedule(runtime): %d iterations", sum.Load())
	}
	// A dynamic chunk-4 loop over 256 iterations must have issued 64
	// dispenser chunks.
	if got := rt.Stats().Snapshot().Chunks - before; got != n/4 {
		return fmt.Errorf("schedule(runtime) not honored: %d chunks, want %d", got, n/4)
	}
	return nil
}

func checkThreadPrivate(rt *core.Runtime) error {
	tp := core.NewThreadPrivate[int](func() int { return 1 })
	err := rt.ParallelN(teamSize, func(c *core.Context) {
		*tp.Get(c) += c.ThreadNum()
	})
	if err != nil {
		return err
	}
	// Second region, same team size: copies persist per thread.
	var wrong atomic.Int32
	err = rt.ParallelN(teamSize, func(c *core.Context) {
		if *tp.Get(c) != 1+c.ThreadNum() {
			wrong.Add(1)
		}
	})
	if err != nil {
		return err
	}
	if wrong.Load() != 0 {
		return fmt.Errorf("threadprivate: %d threads lost their copy", wrong.Load())
	}
	return nil
}
