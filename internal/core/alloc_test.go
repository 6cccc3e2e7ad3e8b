package core

import (
	"testing"
)

// Allocation guards for Table I's hot path. A warm team carries every
// piece of per-region state (team.go), barriers wait on a generation word
// and tasks sit in the deques by value, so once a runtime has run a region
// of a given shape, running it again allocates nothing on either layer.
// testing.AllocsPerRun counts every goroutine's mallocs, pool workers'
// included, and warms up with one run of its own.

// TestRegionForkAllocs: a warm, empty 4-thread region allocates nothing.
func TestRegionForkAllocs(t *testing.T) {
	eachLayer(t, func(t *testing.T, newRT func(...Option) *Runtime) {
		rt := newRT(WithNumThreads(4))
		body := func(*Context) {}
		if n := testing.AllocsPerRun(100, func() {
			if err := rt.Parallel(body); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("a warm empty region allocates %.1f objects, want 0", n)
		}
	})
}

// mixRegion builds the body of one omp_constructs-shaped region: a static
// loop, 8 barriers, 8 criticals, a single, and 32 pre-built tasks plus a
// taskwait, with an optional uint64 reduction at the end.
func mixRegion(withReduce bool) func(*Context) {
	const team, tasks = 4, 32
	var out [256]uint64
	var crit uint64
	fns := make([]func(), tasks)
	for i := range fns {
		fns[i] = func() { out[i] += uint64(i) }
	}
	loop := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i]++
		}
	}
	inc := func() { crit++ }
	single := func() { out[len(out)-1]++ }
	add := func(a, b uint64) uint64 { return a + b }
	// Partials above 255: Go boxes small integers without allocating, so
	// these make the reduction pay for its boxes.
	part := func(lo, hi int) uint64 { return uint64(1000 + hi - lo) }
	return func(c *Context) {
		c.ForOpts(len(out), LoopOpts{Schedule: ScheduleStatic}, loop)
		for i := 0; i < 8; i++ {
			c.Barrier()
		}
		for i := 0; i < 8; i++ {
			c.Critical(inc)
		}
		c.Single(single)
		per := tasks / team
		for j := c.ThreadNum() * per; j < (c.ThreadNum()+1)*per; j++ {
			c.Task(fns[j])
		}
		c.TaskWait()
		if withReduce {
			if r := Reduce(c, 1<<10, 0, add, part); c.ThreadNum() == 0 {
				crit += r
			}
		}
	}
}

// TestMixRegionAllocs: a warm region running every construct of the
// omp_constructs mix but the reduction allocates nothing; with a uint64
// Reduce added it allocates at most the reduction's boxed values — one
// partial per thread and the combined result.
func TestMixRegionAllocs(t *testing.T) {
	const team = 4
	eachLayer(t, func(t *testing.T, newRT func(...Option) *Runtime) {
		rt := newRT(WithNumThreads(team))
		for _, tc := range []struct {
			name       string
			withReduce bool
			max        float64
		}{
			{"constructs", false, 0},
			{"with_reduce", true, team + 1},
		} {
			body := mixRegion(tc.withReduce)
			if n := testing.AllocsPerRun(100, func() {
				if err := rt.Parallel(body); err != nil {
					t.Fatal(err)
				}
			}); n > tc.max {
				t.Errorf("%s: a warm mix region allocates %.1f objects, want <= %.0f", tc.name, n, tc.max)
			}
		}
	})
}
