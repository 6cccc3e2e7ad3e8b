package core

import (
	"context"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"openmpmca/internal/oerrors"
)

// ErrClosed is returned by Parallel (and the worker pool underneath) when
// the runtime has been Closed; a fork racing Close is refused whole with
// this error instead of panicking or hanging a partial team. Classified
// Cancel/runtime_closed.
var ErrClosed = oerrors.Sentinel(oerrors.Cancel, oerrors.CodeRuntimeClosed,
	"core: runtime is closed")

// Stats aggregates runtime event counters; read them with Snapshot.
type Stats struct {
	Regions  atomic.Uint64 // parallel regions forked (incl. serialized nested ones)
	Threads  atomic.Uint64 // thread-region activations (sum of team sizes)
	Barriers atomic.Uint64 // completed barrier episodes
	Chunks   atomic.Uint64 // loop chunks issued by dynamic/guided schedules
	Tasks    atomic.Uint64 // explicit tasks executed
	Crits    atomic.Uint64 // critical sections entered
	Singles  atomic.Uint64 // single constructs won

	// Task-scheduler structure (see task.go): how executed tasks were
	// claimed. LocalPops + Steals can trail Tasks when a full deque
	// forces undeferred execution.
	LocalPops  atomic.Uint64 // tasks popped from the claiming thread's own deque
	Steals     atomic.Uint64 // tasks stolen from a victim's deque head
	StealFails atomic.Uint64 // victim probes that found an empty deque

	// Concurrent-caller machinery (see lease.go, cancel.go).
	LeaseHits   atomic.Uint64 // regions served from the warm-team cache
	LeaseMisses atomic.Uint64 // regions that had to build a fresh team
	Saturations atomic.Uint64 // forks refused with ErrSaturated
	Cancels     atomic.Uint64 // regions torn down early (ctx or panic)
	Panics      atomic.Uint64 // region-body panics contained per thread
}

// StatsSnapshot is a point-in-time copy of Stats. It is JSON-taggable:
// the job service's /v1/stats endpoint and ompmca-info -stats -json both
// serialize it as the "core" section of the unified openmpmca.Snapshot.
type StatsSnapshot struct {
	Regions     uint64 `json:"regions"`
	Threads     uint64 `json:"threads"`
	Barriers    uint64 `json:"barriers"`
	Chunks      uint64 `json:"chunks"`
	Tasks       uint64 `json:"tasks"`
	Crits       uint64 `json:"crits"`
	Singles     uint64 `json:"singles"`
	LocalPops   uint64 `json:"local_pops"`
	Steals      uint64 `json:"steals"`
	StealFails  uint64 `json:"steal_fails"`
	LeaseHits   uint64 `json:"lease_hits"`
	LeaseMisses uint64 `json:"lease_misses"`
	Saturations uint64 `json:"saturations"`
	Cancels     uint64 `json:"cancels"`
	Panics      uint64 `json:"panics"`
}

// Snapshot copies the counters.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		Regions:     s.Regions.Load(),
		Threads:     s.Threads.Load(),
		Barriers:    s.Barriers.Load(),
		Chunks:      s.Chunks.Load(),
		Tasks:       s.Tasks.Load(),
		Crits:       s.Crits.Load(),
		Singles:     s.Singles.Load(),
		LocalPops:   s.LocalPops.Load(),
		Steals:      s.Steals.Load(),
		StealFails:  s.StealFails.Load(),
		LeaseHits:   s.LeaseHits.Load(),
		LeaseMisses: s.LeaseMisses.Load(),
		Saturations: s.Saturations.Load(),
		Cancels:     s.Cancels.Load(),
		Panics:      s.Panics.Load(),
	}
}

// Runtime is an OpenMP-style runtime instance bound to one ThreadLayer.
// Create one with New, fork parallel regions with Parallel/ParallelFor
// (or their Ctx variants), and Close it when done.
//
// A Runtime is safe for concurrent use: any number of goroutines may fork
// overlapping parallel regions against one instance. Each region leases a
// warm team from the runtime's cache (or builds one on a miss) and an
// exclusive set of pool workers for its lifetime. WithMaxConcurrentRegions
// bounds the number of outstanding regions; past the cap and its bounded
// admission queue, forks fail fast with ErrSaturated. A panic in any
// thread's region body is contained: the team is canceled, every thread
// unwinds at its next cancellation point, and the fork returns a
// RegionPanicError while the runtime stays fully usable.
type Runtime struct {
	layer       ThreadLayer
	monitor     Monitor
	barrierKind BarrierKind
	taskQueue   TaskQueue
	pool        *pool

	icvMu sync.Mutex
	icv   ICV

	// criticals maps critical-section names to their mutexes: an
	// immutable snapshot, replaced whole under critMu when a new name
	// first appears, so entering a known section takes no runtime lock.
	critMu    sync.Mutex
	criticals atomic.Pointer[map[string]RuntimeMutex]
	// unnamed caches the unnamed section's entry of criticals, so the
	// commonest critical skips the string-keyed lookup.
	unnamed atomic.Pointer[RuntimeMutex]

	// Warm-team cache (lease.go).
	teamLease bool
	leaseMu   sync.Mutex
	leases    map[int][]*Team

	// Master-identity leasing for concurrent callers (lease.go).
	masterMu   sync.Mutex
	masterFree []int
	masterNext int

	// Admission control: maxRegions outstanding regions may run, another
	// maxRegions may queue; beyond that forks return ErrSaturated.
	// maxRegions == 0 means unbounded (admitSem nil).
	maxRegions   int
	admitSem     chan struct{}
	admitWaiting atomic.Int32

	epoch  time.Time
	stats  Stats
	closed atomic.Bool
}

// Option configures a Runtime at construction. Options validate their
// arguments: a bad value makes New fail with an error wrapping
// ErrInvalidOption instead of being silently clamped.
type Option func(*Runtime) error

// WithLayer selects the thread layer (default: NewNativeLayer(0)).
func WithLayer(l ThreadLayer) Option {
	return func(r *Runtime) error {
		if l == nil {
			return fmt.Errorf("%w: nil thread layer", ErrInvalidOption)
		}
		r.layer = l
		return nil
	}
}

// WithNumThreads sets the default team size.
func WithNumThreads(n int) Option {
	return func(r *Runtime) error {
		if n < 1 {
			return fmt.Errorf("%w: NumThreads %d < 1", ErrInvalidOption, n)
		}
		r.icv.NumThreads = n
		return nil
	}
}

// WithSchedule sets the runtime loop schedule (run-sched-var).
func WithSchedule(s Schedule, chunk int) Option {
	return func(r *Runtime) error {
		if s != ScheduleStatic && s != ScheduleDynamic && s != ScheduleGuided && s != ScheduleAuto {
			return fmt.Errorf("%w: unknown schedule %d", ErrInvalidOption, int(s))
		}
		if chunk < 0 {
			return fmt.Errorf("%w: negative schedule chunk %d", ErrInvalidOption, chunk)
		}
		r.icv.Schedule = s
		r.icv.Chunk = chunk
		return nil
	}
}

// WithMonitor installs an execution monitor (perfmodel hook).
func WithMonitor(m Monitor) Option {
	return func(r *Runtime) error {
		r.monitor = monitorOrNil(m)
		return nil
	}
}

// WithBarrierKind selects the barrier algorithm (ablation knob).
func WithBarrierKind(k BarrierKind) Option {
	return func(r *Runtime) error {
		if k != BarrierCentral && k != BarrierTree {
			return fmt.Errorf("%w: unknown barrier kind %d", ErrInvalidOption, int(k))
		}
		r.barrierKind = k
		return nil
	}
}

// WithTaskQueue selects the task-scheduler structure (ablation knob):
// per-worker stealing deques (default) or the legacy single shared queue.
func WithTaskQueue(k TaskQueue) Option {
	return func(r *Runtime) error {
		if k != TaskQueueSteal && k != TaskQueueShared {
			return fmt.Errorf("%w: unknown task queue kind %d", ErrInvalidOption, int(k))
		}
		r.taskQueue = k
		return nil
	}
}

// WithMaxConcurrentRegions caps the number of parallel regions that may
// be outstanding at once. Up to max regions run concurrently and up to
// max more callers wait in the admission queue (a canceled context
// abandons the wait); past both, forks fail fast with ErrSaturated so
// overload surfaces as backpressure instead of unbounded thread and
// memory growth. max == 0 removes the cap (the default).
func WithMaxConcurrentRegions(max int) Option {
	return func(r *Runtime) error {
		if max < 0 {
			return fmt.Errorf("%w: MaxConcurrentRegions %d < 0", ErrInvalidOption, max)
		}
		r.maxRegions = max
		return nil
	}
}

// WithTeamLeasing toggles the warm-team cache (ablation knob; default
// on). Disabled, every region builds and frees its own team — the
// per-region construction cost BenchmarkConcurrentRegions compares
// leasing against.
func WithTeamLeasing(on bool) Option {
	return func(r *Runtime) error {
		r.teamLease = on
		return nil
	}
}

// TaskQueueKind reports the runtime's task-scheduler structure.
func (r *Runtime) TaskQueueKind() TaskQueue { return r.taskQueue }

// MaxConcurrentRegions reports the admission cap (0 = unbounded).
func (r *Runtime) MaxConcurrentRegions() int { return r.maxRegions }

// WithEnv loads ICVs from OpenMP environment variables through getenv
// before other options apply their overrides.
func WithEnv(getenv func(string) string) Option {
	return func(r *Runtime) error {
		env := ICVFromEnv(getenv)
		if env.NumThreads > 0 {
			r.icv.NumThreads = env.NumThreads
		}
		r.icv.Schedule = env.Schedule
		if env.Chunk > 0 {
			r.icv.Chunk = env.Chunk
		}
		r.icv.Dynamic = env.Dynamic
		if env.MaxThreads > 0 {
			r.icv.MaxThreads = env.MaxThreads
		}
		return nil
	}
}

// New creates a runtime. With no options it uses the native layer and one
// thread per host processor.
func New(opts ...Option) (*Runtime, error) {
	r := &Runtime{
		monitor:   nopMonitor{},
		teamLease: true,
		leases:    make(map[int][]*Team),
		epoch:     time.Now(),
	}
	for _, o := range opts {
		if err := o(r); err != nil {
			return nil, err
		}
	}
	if r.layer == nil {
		r.layer = NewNativeLayer(0)
	}
	r.criticals.Store(&map[string]RuntimeMutex{})
	if r.maxRegions > 0 {
		r.admitSem = make(chan struct{}, r.maxRegions)
	}
	r.icv.normalize(r.layer.NumProcs())
	r.pool = newPool(r.layer)
	return r, nil
}

// Layer returns the runtime's thread layer.
func (r *Runtime) Layer() ThreadLayer { return r.layer }

// Wtime returns elapsed wall-clock seconds since the runtime was created
// (omp_get_wtime; the epoch choice follows libGOMP's
// "per-program-start").
func (r *Runtime) Wtime() float64 {
	return time.Since(r.epoch).Seconds()
}

// Stats returns the live counters.
func (r *Runtime) Stats() *Stats { return &r.stats }

// NumThreads reports the current default team size
// (omp_get_max_threads).
func (r *Runtime) NumThreads() int {
	r.icvMu.Lock()
	defer r.icvMu.Unlock()
	return r.icv.NumThreads
}

// SetNumThreads changes the default team size (omp_set_num_threads). The
// request is clamped by thread-limit-var, and — when dynamic adjustment
// is enabled — by the number of online processors, per the OpenMP rules
// for dyn-var.
func (r *Runtime) SetNumThreads(n int) {
	if n < 1 {
		return
	}
	r.icvMu.Lock()
	defer r.icvMu.Unlock()
	r.icv.NumThreads = n
	r.icv.normalize(r.layer.NumProcs())
}

// RuntimeSchedule reports run-sched-var (omp_get_schedule).
func (r *Runtime) RuntimeSchedule() (Schedule, int) {
	r.icvMu.Lock()
	defer r.icvMu.Unlock()
	return r.icv.Schedule, r.icv.Chunk
}

// SetRuntimeSchedule sets run-sched-var (omp_set_schedule).
func (r *Runtime) SetRuntimeSchedule(s Schedule, chunk int) {
	if chunk < 0 {
		chunk = 0
	}
	r.icvMu.Lock()
	defer r.icvMu.Unlock()
	r.icv.Schedule = s
	r.icv.Chunk = chunk
}

// snapshotICV captures the ICVs for one region fork.
func (r *Runtime) snapshotICV() ICV {
	r.icvMu.Lock()
	defer r.icvMu.Unlock()
	return r.icv
}

// admit applies the concurrency cap before a fork: a free slot admits
// immediately; otherwise the caller joins the bounded admission queue
// (up to maxRegions waiters) until a region finishes or ctx fires; a
// full queue refuses with ErrSaturated.
func (r *Runtime) admit(ctx context.Context) error {
	if r.admitSem == nil {
		return nil
	}
	select {
	case r.admitSem <- struct{}{}:
		return nil
	default:
	}
	if int(r.admitWaiting.Add(1)) > r.maxRegions {
		r.admitWaiting.Add(-1)
		r.stats.Saturations.Add(1)
		return ErrSaturated
	}
	defer r.admitWaiting.Add(-1)
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	select {
	case r.admitSem <- struct{}{}:
		return nil
	case <-done:
		return canceledErr(ctx.Err())
	}
}

// unadmit releases an admission slot at region end.
func (r *Runtime) unadmit() {
	if r.admitSem != nil {
		<-r.admitSem
	}
}

// Parallel forks a team and runs body once per thread (#pragma omp
// parallel). The master (calling goroutine) is thread 0; pool workers
// carry the rest. The region ends with an implicit barrier that also
// drains outstanding explicit tasks.
func (r *Runtime) Parallel(body func(c *Context)) error {
	return r.parallel(nil, 0, body)
}

// ParallelN is Parallel with an explicit team size (num_threads clause);
// n <= 0 means "use the ICV".
func (r *Runtime) ParallelN(n int, body func(c *Context)) error {
	return r.parallel(nil, n, body)
}

// ParallelCtx is Parallel under a context: when ctx is canceled or its
// deadline passes, the whole team unwinds at its next cancellation
// points — loop chunk dispatch, task scheduling, barriers — and the fork
// returns an error wrapping both ErrCanceled and ctx's error (the OpenMP
// "cancel parallel" semantics). Work already inside a body call runs to
// that body's completion; cancellation is cooperative, not preemptive.
func (r *Runtime) ParallelCtx(ctx context.Context, body func(c *Context)) error {
	return r.parallel(ctx, 0, body)
}

// ParallelNCtx is ParallelCtx with an explicit team size.
func (r *Runtime) ParallelNCtx(ctx context.Context, n int, body func(c *Context)) error {
	return r.parallel(ctx, n, body)
}

// parallel is the region driver shared by every fork variant. ctx may be
// nil (no cancellation source); panic containment is always on.
func (r *Runtime) parallel(ctx context.Context, n int, body func(c *Context)) error {
	if r.closed.Load() {
		return ErrClosed
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return canceledErr(err)
		}
	}
	if err := r.admit(ctx); err != nil {
		return err
	}
	defer r.unadmit()

	icv := r.snapshotICV()
	if n <= 0 {
		n = icv.NumThreads
	}
	if n > icv.MaxThreads {
		n = icv.MaxThreads
	}
	if n < 1 {
		n = 1
	}

	team, err := r.leaseTeam(n)
	if err != nil {
		return err
	}
	if err := r.pool.acquire(team.workers); err != nil {
		r.releaseTeam(team)
		return err
	}
	masterWID := r.acquireMasterWID()
	defer r.releaseMasterWID(masterWID)
	team.armRegion(body, icv, masterWID)

	// The watcher converts a ctx fire into team cancellation. It must be
	// stopped AND joined before the team is released: releaseTeam may
	// rebuild the team's structures, which is only safe once no other
	// goroutine (a watcher mid-cancel included) can still touch them.
	stopWatcher := func() {}
	if ctx != nil && ctx.Done() != nil {
		stopWatch := make(chan struct{})
		watchDone := make(chan struct{})
		go func() {
			defer close(watchDone)
			select {
			case <-ctx.Done():
				team.cancel(canceledErr(ctx.Err()))
			case <-stopWatch:
			}
		}()
		stopWatcher = func() {
			close(stopWatch)
			<-watchDone
		}
	}

	// The team's cached jobs for workers 1..n-1 are handed over in one
	// all-or-nothing batch: a Close racing this fork either refuses the
	// whole batch (ErrClosed, no worker started, nothing waits on the
	// join) or happens after every send. Partial teams — which would hang
	// the join — cannot form.
	r.monitor.Fork(n)
	if err := r.pool.dispatchAll(team.workers, team.jobs); err != nil {
		stopWatcher()
		r.monitor.Join()
		r.releaseTeam(team)
		return err
	}
	r.stats.Regions.Add(1)
	r.stats.Threads.Add(uint64(n))
	// The region end is arrive-only: each thread drains the task queues
	// (runThread), workers count down the join, and only the master waits.
	// A worker is therefore woken once per region, by its job.
	team.runThread(0)
	team.awaitJoin()
	r.pool.release(team.workers)
	stopWatcher()
	// The implicit region-end barrier's accounting runs here, once, so
	// Stats.Barriers and the monitor's event stream read as they did when
	// every thread synchronized on it. A canceled region never completed
	// that barrier.
	if !team.canceled() {
		team.onBarrier()
	}
	r.monitor.Join()
	err = team.regionErr()
	r.releaseTeam(team)
	return err
}

// ParallelFor forks a team and workshares iterations 0..n-1 over it with
// the runtime schedule (#pragma omp parallel for).
func (r *Runtime) ParallelFor(n int, body func(i int)) error {
	return r.Parallel(func(c *Context) { c.For(n, body) })
}

// ParallelForCtx is ParallelFor under a context; see ParallelCtx for the
// cancellation contract.
func (r *Runtime) ParallelForCtx(ctx context.Context, n int, body func(i int)) error {
	return r.ParallelCtx(ctx, func(c *Context) { c.For(n, body) })
}

// ParallelForRange forks a team and workshares iterations 0..n-1 with a
// static block schedule, handing each thread one contiguous [lo,hi)
// range (#pragma omp parallel for schedule(static)). This is the
// zero-per-index-overhead fork: no closure call per iteration, which is
// what an offload domain wants when executing a remote chunk whose body
// is already a range kernel.
func (r *Runtime) ParallelForRange(n int, body func(lo, hi int)) error {
	return r.Parallel(func(c *Context) {
		c.ForRange(n, LoopOpts{Schedule: ScheduleStatic}, body)
	})
}

// unnamedCritical returns the mutex of the unnamed critical section.
func (r *Runtime) unnamedCritical() RuntimeMutex {
	if m := r.unnamed.Load(); m != nil {
		return *m
	}
	m := r.criticalMutex(DefaultCriticalName)
	r.unnamed.Store(&m)
	return m
}

// criticalMutex returns the mutex backing the named critical section,
// creating it through the thread layer on first use.
func (r *Runtime) criticalMutex(name string) RuntimeMutex {
	if m, ok := (*r.criticals.Load())[name]; ok {
		return m
	}
	r.critMu.Lock()
	defer r.critMu.Unlock()
	old := *r.criticals.Load()
	if m, ok := old[name]; ok {
		return m
	}
	m, err := r.layer.NewMutex()
	if err != nil {
		// Mirrors gomp_fatal: the runtime cannot continue without its
		// synchronization primitive.
		panic(fmt.Sprintf("core: creating critical-section mutex: %v", err))
	}
	next := maps.Clone(old)
	next[name] = m
	r.criticals.Store(&next)
	return m
}

// Close shuts the pool down and releases the layer. The runtime is
// unusable afterwards.
func (r *Runtime) Close() error {
	if !r.closed.CompareAndSwap(false, true) {
		return nil
	}
	r.pool.close()
	r.drainTeamCache()
	return r.layer.Close()
}
