package core

import (
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
type Team struct {
	rt   *Runtime
	size int

	barrier teamBarrier
	// onBarrier is the barrier's onRelease hook, built once so that a
	// barrier episode allocates nothing beyond its gate.
	onBarrier func()
	// shmem is the team's runtime-allocated bookkeeping block; it comes
	// from the thread layer (MRAPI shared memory under MCALayer).
	shmem []byte

	// Worksharing database: generation -> live workshare instance.
	wsMu sync.Mutex
	ws   map[int]*workshare

	// Task scheduler state. deques holds one bounded deque per thread
	// (TaskQueueSteal) or a single team-shared one (TaskQueueShared);
	// see task.go for the push/pop/steal protocol.
	deques      []*taskDeque
	queued      atomic.Int64 // tasks sitting in deques, not yet claimed
	outstanding atomic.Int64 // tasks created but not yet retired
	idlers      atomic.Int32 // drainers parked in idleWait
	idleMu      sync.Mutex
	idleCond    *sync.Cond

	// Region cancellation state (see cancel.go), re-armed per lease.
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
		rt:      rt,
		size:    size,
		barrier: newBarrier(rt.barrierKind, size),
		shmem:   shmem,
		ws:      make(map[int]*workshare),
	}
	ndeques := size
	if rt.taskQueue == TaskQueueShared {
		ndeques = 1
	}
	t.deques = newTaskDequeSlab(ndeques, dequeCapacity)
	t.idleCond = sync.NewCond(&t.idleMu)
	t.onBarrier = func() {
		rt.monitor.Barrier()
		rt.stats.Barriers.Add(1)
	}
	t.arm()
	return t, nil
}

// Size returns the team's thread count.
func (t *Team) Size() int { return t.size }

// workshareAt returns the workshare instance for generation gen, creating
// it if this thread arrives first.
func (t *Team) workshareAt(gen int) *workshare {
	t.wsMu.Lock()
	defer t.wsMu.Unlock()
	ws, ok := t.ws[gen]
	if !ok {
		ws = &workshare{}
		t.ws[gen] = ws
	}
	return ws
}

// finishWorkshare records that one thread is done with the instance; the
// last one removes it from the database so long regions do not accumulate
// dead worksharing state.
func (t *Team) finishWorkshare(gen int, ws *workshare) {
	if ws.done.Add(1) == int32(t.size) {
		t.wsMu.Lock()
		delete(t.ws, gen)
		t.wsMu.Unlock()
	}
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
	// The inner context inherits the executing thread's layer identity:
	// the serialized team runs on the same worker.
	inner := &Context{team: team, tid: 0, wid: c.wid, groups: &[]*taskGroup{{}}}
	body(inner)
	team.drain(0, nil)
	rt.monitor.NestedJoin(c.tid)
	completed = true
	return nil
}
