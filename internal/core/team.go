package core

import (
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// teamShmemSize is the size of the MRAPI-allocated bookkeeping block each
// team obtains at fork (the paper's "block of work share" per team, §5B2).
// Its allocation exercises the layer's gomp_malloc path; per-thread scratch
// is sliced out of it.
const teamShmemSize = 64

// Team is one parallel region's thread team: the barrier, the worksharing
// database, the reduction slots and the task scheduler its threads
// coordinate through.
//
// A team is built once (newTeam) and leased to many regions (lease.go).
// Everything a region needs per thread — its Context, its implicit task
// group and the pool-worker job that runs it — is built with the team, so
// a warm region re-arms state instead of allocating it (armRegion).
type Team struct {
	rt   *Runtime
	size int

	barrier teamBarrier
	// onBarrier is the barrier's onRelease hook, built once so that a
	// barrier episode allocates nothing. The region end runs it too, on
	// the master after the join (Runtime.parallel).
	onBarrier func()
	// shmem is the team's runtime-allocated bookkeeping block; it comes
	// from the thread layer (MRAPI shared memory under MCALayer).
	shmem []byte

	// Fork state, re-armed per region. icv is the fork's ICV snapshot
	// (schedule(runtime) loops read it, so every thread of one loop sees
	// the same schedule); body is the region body; ctxs[tid] is thread
	// tid's Context and scopes[tid] its implicit-task scope, whose only
	// group is implicit[tid]. workers are the pool workers carrying
	// threads 1..size-1, and jobs[tid-1] is what such a worker runs: the
	// thread's body and drain, then its arrival at the join.
	icv      ICV
	body     func(*Context)
	ctxs     []*Context
	implicit []taskGroup
	scopes   [][]*taskGroup
	workers  []*poolWorker
	jobs     []func()
	// unjoined counts the workers that have not yet arrived at the region
	// end; the master waits on join until it reaches zero.
	unjoined atomic.Int32
	join     waitCell

	// Worksharing database: the live workshare instances, matched by
	// generation, and retired records kept for reuse.
	wsMu   sync.Mutex
	ws     []*workshare
	wsFree []*workshare

	// Task scheduler state. deques holds one bounded deque per thread
	// (TaskQueueSteal) or a single team-shared one (TaskQueueShared);
	// see task.go for the push/pop/steal protocol.
	deques      []*taskDeque
	queued      atomic.Int64 // tasks sitting in deques, not yet claimed
	outstanding atomic.Int64 // tasks created but not yet retired
	idle        waitCell     // drainers waiting for a task or their scope

	// Region cancellation state (see cancel.go), re-armed per region.
	// Cancellation aborts the barrier in place (teamBarrier.abort).
	// poisoned marks a team whose region ended abnormally and whose
	// structures must be rebuilt before reuse.
	cancelFlag atomic.Bool
	cancelMu   sync.Mutex
	cancelErr  error
	poisoned   bool
}

func newTeam(rt *Runtime, size int) (*Team, error) {
	shmem, err := rt.layer.Alloc(teamShmemSize * size)
	if err != nil {
		return nil, err
	}
	t := &Team{
		rt:       rt,
		size:     size,
		barrier:  newBarrier(rt.barrierKind, size),
		shmem:    shmem,
		ctxs:     make([]*Context, size),
		implicit: make([]taskGroup, size),
		scopes:   make([][]*taskGroup, size),
		workers:  make([]*poolWorker, size-1),
		jobs:     make([]func(), size-1),
	}
	t.deques = newTaskDequeSlab(t.ndeques(), dequeCapacity)
	t.idle.init()
	t.join.init()
	t.onBarrier = func() {
		rt.monitor.Barrier()
		rt.stats.Barriers.Add(1)
	}
	for tid := range t.ctxs {
		// Separate allocations keep each thread's hot Context fields
		// (wsGen above all) on a cache line of their own.
		t.ctxs[tid] = &Context{team: t, tid: tid}
		t.scopes[tid] = []*taskGroup{&t.implicit[tid]}
	}
	for i := range t.jobs {
		tid := i + 1
		t.jobs[i] = func() {
			t.runThread(tid)
			t.arrive()
		}
	}
	return t, nil
}

// ndeques is the number of task deques the runtime's TaskQueue kind needs.
func (t *Team) ndeques() int {
	if t.rt.taskQueue == TaskQueueShared {
		return 1
	}
	return t.size
}

// Size returns the team's thread count.
func (t *Team) Size() int { return t.size }

// armRegion readies the cached fork state for a region: the cancellation
// state, the body, the fork's ICVs, and every thread's Context. Thread 0
// takes masterWID; the others take their pool worker's id, so t.workers
// must already be filled. It runs on the forking goroutine before any
// worker is dispatched; the dispatch hand-off publishes it. A team that
// was canceled arrives here already rebuilt by reset, barrier included.
func (t *Team) armRegion(body func(*Context), icv ICV, masterWID int) {
	t.cancelErr = nil
	t.poisoned = false
	t.cancelFlag.Store(false)
	t.body = body
	t.icv = icv
	for tid, c := range t.ctxs {
		c.wid = masterWID
		if tid > 0 {
			c.wid = t.workers[tid-1].wid
		}
		c.wsGen = 0
		c.groups = &t.scopes[tid]
		c.loopWS = nil
	}
	t.unjoined.Store(int32(t.size - 1))
}

// runThread runs thread tid's share of the region: the body, then a drain
// of the task queues. It contains every panic: a cooperative unwind out of
// a canceled region is a clean exit, a real panic from the body (or a task
// it ran) fails the region and cancels the rest of the team. The process
// stays alive.
func (t *Team) runThread(tid int) {
	defer func() {
		if v := recover(); v != nil {
			if _, ok := v.(teamUnwind); ok && t.canceled() {
				return
			}
			t.recordPanic(tid, v, debug.Stack())
		}
	}()
	t.body(t.ctxs[tid])
	t.drain(tid, nil)
}

// arrive is a worker's region end: it counts the worker out of the join and
// wakes the master if it was the last. The worker touches the team no more
// after this; the master may re-lease it at once.
func (t *Team) arrive() {
	if t.unjoined.Add(-1) == 0 {
		t.join.wake()
	}
}

// awaitJoin blocks the master until every worker has arrived.
func (t *Team) awaitJoin() {
	t.join.await(func() bool { return t.unjoined.Load() == 0 })
}

// workshareAt returns the workshare instance for generation gen, creating
// it (from the free list when it can) if this thread arrives first. The
// live set is short — a thread can run ahead of its team only through
// nowait constructs — so a linear scan finds it.
func (t *Team) workshareAt(gen int) *workshare {
	t.wsMu.Lock()
	defer t.wsMu.Unlock()
	for _, ws := range t.ws {
		if ws.gen == gen {
			return ws
		}
	}
	var ws *workshare
	if n := len(t.wsFree); n > 0 {
		ws = t.wsFree[n-1]
		t.wsFree = t.wsFree[:n-1]
	} else {
		ws = &workshare{}
	}
	ws.gen = gen
	t.ws = append(t.ws, ws)
	return ws
}

// finishWorkshare records that one thread is done with the instance. The
// last one retires it: out of the live set, fields reset, onto the free
// list, so long regions neither accumulate dead worksharing state nor
// allocate a record per construct. Every thread has passed workshareAt for
// this generation by then, and no thread touches ws after its own call.
func (t *Team) finishWorkshare(ws *workshare) {
	if ws.done.Add(1) != int32(t.size) {
		return
	}
	t.wsMu.Lock()
	defer t.wsMu.Unlock()
	for i, live := range t.ws {
		if live == ws {
			last := len(t.ws) - 1
			t.ws[i], t.ws[last] = t.ws[last], nil
			t.ws = t.ws[:last]
			break
		}
	}
	ws.reset()
	t.wsFree = append(t.wsFree, ws)
}

// Context is one thread's view of a parallel region. The runtime passes a
// Context to the region body; every construct method is keyed off it.
// A Context is owned by its thread and must not be shared.
type Context struct {
	team *Team
	tid  int

	// wid is the thread's layer-level worker identity: the pool worker's
	// id for threads 1..n-1, a (non-positive) leased caller id for thread
	// 0. Unlike tid it is unique across concurrently running teams, which
	// is what MRAPI node-owned mutexes attribute acquisitions by — two
	// overlapping regions both presenting tid 1 to the layer would trip
	// MRAPI's self-deadlock detection.
	wid int

	// wsGen counts worksharing constructs (for/sections/single) this
	// thread has entered; since every thread executes the same construct
	// sequence, equal generations across threads denote the same source
	// construct — the libGOMP work-share matching scheme.
	wsGen int

	// groups is the set of open task groups, outermost first; index 0 is
	// the implicit group of this thread's region task. It is replaced,
	// never edited in place, under groupMu — see Context.scopes for why
	// it is a set and not a stack.
	groupMu sync.Mutex
	groups  *[]*taskGroup

	// loopWS points at the enclosing Ordered loop's workshare while one
	// is active, so Context.Ordered can find its sequencing state.
	loopWS *workshare
}

// ThreadNum returns this thread's id within the team (omp_get_thread_num).
func (c *Context) ThreadNum() int { return c.tid }

// NumThreads returns the team size (omp_get_num_threads).
func (c *Context) NumThreads() int { return c.team.size }

// Runtime returns the owning runtime.
func (c *Context) Runtime() *Runtime { return c.team.rt }

// Scratch returns this thread's slice of the team's MRAPI-allocated
// bookkeeping block — private scratch carved from runtime-managed shared
// memory, as the paper's runtime does for its work-share blocks.
func (c *Context) Scratch() []byte {
	return c.team.shmem[c.tid*teamShmemSize : (c.tid+1)*teamShmemSize]
}

// Charge reports abstract work units to the runtime monitor; the
// virtual-time performance model turns them into board cycles. A nil
// monitor makes this a no-op.
func (c *Context) Charge(units float64) {
	c.team.rt.monitor.Charge(c.tid, units)
}

// Barrier executes a full team barrier (#pragma omp barrier). It is a
// cancellation point: in a canceled region the wait aborts and the thread
// unwinds instead of blocking on teammates that will never arrive.
func (c *Context) Barrier() {
	t := c.team
	t.checkCancel()
	t.barrier.Wait(c.tid, t.onBarrier)
	t.checkCancel()
}

// Master runs fn on thread 0 only, with no implied barrier
// (#pragma omp master).
func (c *Context) Master(fn func()) {
	if c.tid == 0 {
		fn()
	}
}

// Parallel runs a nested parallel region. Nested parallelism is disabled
// in this runtime (OMP_NESTED=false semantics, the usual configuration on
// the paper's embedded targets), so the inner region executes serialized:
// a team of one on the calling thread. Inner explicit tasks are drained
// before it returns. The serialized region still counts: Stats sees one
// region of one thread, and the monitor gets NestedFork/NestedJoin — the
// dedicated events that let traces show nested structure without
// disturbing the outer region's virtual clocks.
func (c *Context) Parallel(body func(*Context)) error {
	c.team.checkCancel()
	rt := c.team.rt
	team, err := rt.leaseTeam(1)
	if err != nil {
		return err
	}
	completed := false
	defer func() {
		if !completed {
			// A panic (or outer-cancellation unwind) is escaping through
			// this nested region: its deques and counters are in an
			// unknown state, so poison the team and let releaseTeam
			// rebuild it before reuse.
			team.poisoned = true
		}
		rt.releaseTeam(team)
	}()
	rt.monitor.NestedFork(c.tid, 1)
	rt.stats.Regions.Add(1)
	rt.stats.Threads.Add(1)
	// The inner context inherits the executing thread's layer identity
	// (the serialized team runs on the same worker) and the outer region's
	// ICVs.
	team.armRegion(body, c.team.icv, c.wid)
	body(team.ctxs[0])
	team.drain(0, nil)
	rt.monitor.NestedJoin(c.tid)
	completed = true
	return nil
}
