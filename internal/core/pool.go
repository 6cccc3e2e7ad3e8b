package core

import "sync"

// pool keeps the persistent worker threads the runtime forks teams from —
// the paper's thread-pool reuse argument (§5B1): nodes and their threads
// are created once and parked between regions rather than re-created per
// region.
//
// Unlike the seed's pool, workers are not statically bound to team thread
// ids: concurrent parallel regions each acquire an exclusive set of
// parked workers for the region's lifetime and hand them back at join, so
// any number of callers can fork overlapping teams against one runtime.
// A worker's id is assigned once at creation and never reused, which
// keeps layer-level attribution (MRAPI node identity under MCALayer)
// unique across concurrently running teams.
//
// Team thread 0 is always a calling goroutine and never lives in the
// pool; pool workers are numbered from 1.
type pool struct {
	layer ThreadLayer

	mu     sync.Mutex
	free   []*poolWorker // parked workers, ordered by descending wid
	all    []*poolWorker // every worker ever started (for close/join)
	closed bool
}

type poolWorker struct {
	wid    int
	jobs   chan func() // capacity 1: an acquired worker is always parked
	handle Worker
}

func newPool(layer ThreadLayer) *pool {
	return &pool{layer: layer}
}

// acquire reserves len(dst) workers for one region into dst (a slice the
// region's team owns, so a warm fork allocates nothing here), starting new
// ones when the free list runs short. Acquired workers are owned
// exclusively by the caller until it releases them.
//
// The lowest free wids are taken first, in ascending order. For a
// sequential caller this keeps the worker↔thread-number binding stable
// across same-size regions — the OpenMP threadprivate persistence
// guarantee depends on it — without constraining what overlapping regions
// of concurrent callers get.
func (p *pool) acquire(dst []*poolWorker) error {
	if len(dst) == 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	take := min(len(dst), len(p.free))
	for i := 0; i < take; i++ {
		dst[i] = p.free[len(p.free)-1-i]
	}
	p.free = p.free[:len(p.free)-take]
	for i := take; i < len(dst); i++ {
		wid := len(p.all) + 1
		w := &poolWorker{wid: wid, jobs: make(chan func(), 1)}
		handle, err := p.layer.StartWorker(wid, func() {
			for job := range w.jobs {
				job()
			}
		})
		if err != nil {
			// Hand the already-reserved workers back; the fresh one never
			// started and owns no resources.
			p.parkLocked(dst[:i])
			clear(dst)
			return err
		}
		w.handle = handle
		p.all = append(p.all, w)
		dst[i] = w
	}
	return nil
}

// size reports the number of workers ever started (excluding the master).
func (p *pool) size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.all)
}

// idle reports the number of parked workers on the free list.
func (p *pool) idle() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.free)
}

// dispatchAll hands jobs[i] to the acquired workers[i], all under one
// critical section. The batch is all-or-nothing: a concurrent close
// either wins the lock first — every send is refused with ErrClosed, no
// worker starts, and a partial team that would hang its region-end
// barrier cannot form — or waits until every job is handed over. The
// sends cannot block: an acquired worker is parked in its receive loop
// and its capacity-1 channel is empty. The caller joins its jobs and then
// hands the workers back with release.
func (p *pool) dispatchAll(workers []*poolWorker, jobs []func()) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	for i, w := range workers {
		w.jobs <- jobs[i]
	}
	return nil
}

// release parks workers back on the free list once their dispatched jobs
// have completed. The region's owner calls it after its join, not each
// worker on its own way out: a sequential caller's next acquire then
// always finds them (a worker releasing itself raced that acquire and
// grew the pool), and a team's workers do not pile onto the pool lock at
// the moment the join is waiting for them.
func (p *pool) release(ws []*poolWorker) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.parkLocked(ws)
}

// parkLocked inserts ws into the free list, keeping it ordered by
// descending wid so acquire pops the lowest wids off its tail. ws comes in
// ascending order, so inserting from its end usually just appends.
// Callers hold p.mu.
func (p *pool) parkLocked(ws []*poolWorker) {
	for k := len(ws) - 1; k >= 0; k-- {
		w := ws[k]
		i := len(p.free)
		p.free = append(p.free, w)
		for i > 0 && p.free[i-1].wid < w.wid {
			p.free[i] = p.free[i-1]
			i--
		}
		p.free[i] = w
	}
}

// close shuts down every worker and joins them. The jobs channels are
// closed under the lock so a concurrent dispatchAll can never send on a
// closed channel; a worker still running a region job drains it (the
// channel close only takes effect at its next receive) before exiting.
func (p *pool) close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	all := p.all
	p.all, p.free = nil, nil
	for _, w := range all {
		close(w.jobs)
	}
	p.mu.Unlock()

	for _, w := range all {
		w.handle.Join()
	}
}
