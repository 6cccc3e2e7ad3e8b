package core

import (
	"sync"
	"sync/atomic"
)

// workshare is the per-construct coordination record shared by a team for
// one dynamic worksharing instance (dynamic/guided loop, sections, single).
// Static loops need no shared state and allocate none.
type workshare struct {
	// gen is the worksharing generation the record serves (see
	// Context.wsGen); set under Team.wsMu when the record goes live.
	gen int
	// next is the dynamic-schedule / sections iteration dispenser.
	next atomic.Int64
	// guided state, guarded by mu.
	mu        sync.Mutex
	remaining int
	issued    bool
	// claimed is the single-construct winner flag.
	claimed atomic.Bool
	// ordered-construct sequencing: ordNext is the iteration whose
	// ordered section may run; waiters park on ordCond.
	ordMu   sync.Mutex
	ordCond *sync.Cond
	ordNext int
	// slots and result carry a reduction exchange (guarded by mu for the
	// slot writes; result is written by thread 0 between the reduction's
	// two barriers).
	slots  []any
	result any
	// done counts threads finished with this instance (for cleanup).
	done atomic.Int32
}

// reset readies a retired record for its next construct. slots keeps its
// backing array (a team's reductions all have the team's size) and
// ordCond stays bound to ordMu.
func (ws *workshare) reset() {
	ws.next.Store(0)
	ws.remaining, ws.issued = 0, false
	ws.claimed.Store(false)
	ws.ordNext = 0
	clear(ws.slots)
	ws.result = nil
	ws.done.Store(0)
}

// LoopOpts configure a worksharing loop.
type LoopOpts struct {
	// Schedule selects the policy; pass ScheduleRuntime semantics by
	// leaving UseRuntime true instead.
	Schedule Schedule
	// Chunk is the schedule's chunk size (0 = policy default).
	Chunk int
	// UseRuntime takes schedule and chunk from the runtime ICVs
	// (schedule(runtime)) as they stood when the region forked, so a
	// concurrent SetRuntimeSchedule cannot split one loop instance
	// across two schedules.
	UseRuntime bool
	// NoWait skips the implied end-of-loop barrier.
	NoWait bool
	// Ordered declares that the loop body contains Context.Ordered
	// sections, which then execute in iteration order.
	Ordered bool
}

// For workshares iterations 0..n-1 over the team with the runtime
// schedule, invoking body once per iteration (#pragma omp for).
func (c *Context) For(n int, body func(i int)) {
	c.ForOpts(n, LoopOpts{UseRuntime: true}, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ForRange workshares iterations with the given schedule, handing the
// body contiguous [lo,hi) chunks — the zero-overhead form for tight
// kernels.
func (c *Context) ForRange(n int, opts LoopOpts, body func(lo, hi int)) {
	c.ForOpts(n, opts, body)
}

// ForOpts is the full worksharing loop. Every thread of the team must
// reach it (OpenMP worksharing rule); the runtime matches instances across
// threads by arrival order.
func (c *Context) ForOpts(n int, opts LoopOpts, body func(lo, hi int)) {
	t := c.team
	sched, chunk := opts.Schedule, opts.Chunk
	if opts.UseRuntime {
		sched, chunk = t.icv.Schedule, t.icv.Chunk
	}
	if sched == ScheduleAuto {
		sched = ScheduleStatic
	}

	gen := c.wsGen
	c.wsGen++

	if n > 0 {
		var ws *workshare
		if sched != ScheduleStatic || opts.Ordered {
			ws = t.workshareAt(gen)
		}
		if opts.Ordered {
			prev := c.loopWS
			c.loopWS = ws
			defer func() { c.loopWS = prev }()
		}
		switch sched {
		case ScheduleStatic:
			c.staticLoop(n, chunk, body)
		case ScheduleDynamic:
			c.dynamicLoop(ws, n, chunk, body)
		case ScheduleGuided:
			c.guidedLoop(ws, n, chunk, body)
		}
		if ws != nil {
			t.finishWorkshare(ws)
		}
	}

	if !opts.NoWait {
		c.Barrier()
	}
}

// Ordered runs fn as iteration i's ordered section: sections execute in
// ascending iteration order across the team (#pragma omp ordered). It
// must be called from inside a loop declared with LoopOpts.Ordered; every
// iteration of that loop must reach it exactly once. An orphaned call
// (no ordered loop active) just runs fn, matching a one-thread binding.
func (c *Context) Ordered(i int, fn func()) {
	ws := c.loopWS
	if ws == nil {
		fn()
		return
	}
	t := c.team
	ws.ordMu.Lock()
	if ws.ordCond == nil {
		ws.ordCond = sync.NewCond(&ws.ordMu)
	}
	for ws.ordNext != i && !t.canceled() {
		ws.ordCond.Wait()
	}
	ws.ordMu.Unlock()
	// Ordered entry is a cancellation point: a canceled team's sequencing
	// chain is broken (earlier iterations may never run their sections),
	// so waiting threads unwind instead of completing out of order.
	t.checkCancel()

	fn()

	ws.ordMu.Lock()
	ws.ordNext = i + 1
	ws.ordCond.Broadcast()
	ws.ordMu.Unlock()
}

// staticLoop implements schedule(static[,chunk]) with no shared state.
func (c *Context) staticLoop(n, chunk int, body func(lo, hi int)) {
	size, tid := c.team.size, c.tid
	if chunk <= 0 {
		// Block distribution: one contiguous range per thread, remainder
		// spread over the leading threads (libGOMP's static split).
		q, rem := n/size, n%size
		lo := tid*q + min(tid, rem)
		hi := lo + q
		if tid < rem {
			hi++
		}
		if lo < hi {
			// One pre-dispatch cancellation point; the contiguous block
			// itself is handed to the body whole and runs to completion.
			c.team.checkCancel()
			body(lo, hi)
		}
		return
	}
	// Chunked static: chunks dealt round-robin by thread id. Chunk
	// boundaries are cancellation points.
	for lo := tid * chunk; lo < n; lo += size * chunk {
		c.team.checkCancel()
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		body(lo, hi)
	}
}

// dynamicLoop implements schedule(dynamic[,chunk]) over a shared atomic
// dispenser.
func (c *Context) dynamicLoop(ws *workshare, n, chunk int, body func(lo, hi int)) {
	if chunk <= 0 {
		chunk = 1
	}
	stats := &c.team.rt.stats
	for {
		// Chunk dispatch is a cancellation point (OpenMP cancel parallel):
		// a canceled team stops handing out iterations and unwinds.
		c.team.checkCancel()
		lo := int(ws.next.Add(int64(chunk))) - chunk
		if lo >= n {
			return
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		stats.Chunks.Add(1)
		body(lo, hi)
	}
}

// guidedLoop implements schedule(guided[,chunk]): exponentially shrinking
// chunks of remaining/(2·threads), floored at the chunk size.
func (c *Context) guidedLoop(ws *workshare, n, minChunk int, body func(lo, hi int)) {
	if minChunk <= 0 {
		minChunk = 1
	}
	size := c.team.size
	stats := &c.team.rt.stats
	for {
		c.team.checkCancel()
		ws.mu.Lock()
		if !ws.issued {
			ws.issued = true
			ws.remaining = n
		}
		if ws.remaining == 0 {
			ws.mu.Unlock()
			return
		}
		take := ws.remaining / (2 * size)
		if take < minChunk {
			take = minChunk
		}
		if take > ws.remaining {
			take = ws.remaining
		}
		lo := n - ws.remaining
		ws.remaining -= take
		ws.mu.Unlock()
		stats.Chunks.Add(1)
		body(lo, lo+take)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
