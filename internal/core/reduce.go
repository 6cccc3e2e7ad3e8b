package core

// Reduce workshares iterations 0..n-1 over the team and combines the
// per-thread partial results with op, returning the combined value on
// every thread (#pragma omp parallel for reduction).
//
// body receives a contiguous [lo,hi) range (static block schedule, the
// distribution libGOMP applies to reductions) and returns the partial
// result for that range. identity is the reduction's neutral element. op
// must be associative; commutativity is not required, because partials are
// combined in thread order.
//
// Every thread of the team must call Reduce at the same construct; the
// exchange costs two team barriers.
func Reduce[T any](c *Context, n int, identity T, op func(T, T) T, body func(lo, hi int) T) T {
	partial := identity
	c.staticLoop(n, 0, func(lo, hi int) {
		partial = op(partial, body(lo, hi))
	})
	return ReduceValues(c, partial, op)
}

// ReduceValues combines one already-computed value per thread without
// worksharing a loop — the "reduction over explicit partials" form used
// when the caller has its own loop structure.
//
// Each reduction instance carries its own workshare record, so
// back-to-back reductions cannot clobber each other and no trailing
// barrier is needed beyond the two of the exchange itself.
func ReduceValues[T any](c *Context, value T, op func(T, T) T) T {
	t := c.team
	gen := c.wsGen
	c.wsGen++
	ws := t.workshareAt(gen)

	ws.mu.Lock()
	if ws.slots == nil {
		ws.slots = make([]any, t.size)
	}
	ws.slots[c.tid] = value
	ws.mu.Unlock()

	c.Barrier()
	if c.tid == 0 {
		acc := ws.slots[0].(T)
		for i := 1; i < t.size; i++ {
			acc = op(acc, ws.slots[i].(T))
		}
		ws.result = acc
		t.rt.monitor.Reduction(t.size)
	}
	c.Barrier()
	result := ws.result.(T)
	t.finishWorkshare(ws)
	return result
}
