package core

// DefaultCriticalName is the section name of an unnamed #pragma omp
// critical.
const DefaultCriticalName = "<unnamed>"

// Critical runs fn inside the unnamed critical section.
func (c *Context) Critical(fn func()) {
	c.critical(c.team.rt.unnamedCritical(), fn)
}

// CriticalNamed runs fn inside the critical section with the given name
// (#pragma omp critical(name)). Sections with different names may overlap;
// the same name is mutually exclusive runtime-wide, across regions.
func (c *Context) CriticalNamed(name string, fn func()) {
	c.critical(c.team.rt.criticalMutex(name), fn)
}

func (c *Context) critical(m RuntimeMutex, fn func()) {
	rt := c.team.rt
	// Lock attribution uses the layer-level worker id, not the team
	// thread id: wids stay unique across concurrently running teams,
	// where tids repeat (MRAPI mutexes trap a same-node relock as
	// self-deadlock). The deferred unlock also releases the section when
	// fn panics, so a contained region panic cannot strand waiters.
	m.Lock(c.wid)
	rt.monitor.CriticalEnter(c.tid)
	rt.stats.Crits.Add(1)
	defer func() {
		rt.monitor.CriticalExit(c.tid)
		m.Unlock(c.wid)
	}()
	fn()
}

// Single runs fn on the first thread to arrive and reports whether this
// thread executed it (#pragma omp single). All threads synchronize on the
// implied barrier afterwards.
func (c *Context) Single(fn func()) bool {
	return c.singleOpts(fn, false)
}

// SingleNoWait is Single without the trailing barrier (nowait clause).
func (c *Context) SingleNoWait(fn func()) bool {
	return c.singleOpts(fn, true)
}

func (c *Context) singleOpts(fn func(), nowait bool) bool {
	t := c.team
	gen := c.wsGen
	c.wsGen++
	ws := t.workshareAt(gen)
	won := ws.claimed.CompareAndSwap(false, true)
	if won {
		t.rt.monitor.Single(c.tid)
		t.rt.stats.Singles.Add(1)
		fn()
	}
	t.finishWorkshare(ws)
	if !nowait {
		c.Barrier()
	}
	return won
}

// SingleCopy runs fn on the first thread to arrive and broadcasts its
// result to every thread of the team — the single construct's
// copyprivate clause. The implied barrier publishes the value.
func SingleCopy[T any](c *Context, fn func() T) T {
	t := c.team
	gen := c.wsGen
	c.wsGen++
	ws := t.workshareAt(gen)
	if ws.claimed.CompareAndSwap(false, true) {
		t.rt.monitor.Single(c.tid)
		t.rt.stats.Singles.Add(1)
		ws.result = fn()
	}
	c.Barrier()
	v := ws.result.(T)
	t.finishWorkshare(ws)
	return v
}

// Sections distributes the given section bodies over the team
// (#pragma omp sections): each section runs exactly once, on whichever
// thread claims it. The construct ends with an implied barrier.
func (c *Context) Sections(sections ...func()) {
	c.SectionsOpts(false, sections...)
}

// SectionsOpts is Sections with a nowait control.
func (c *Context) SectionsOpts(nowait bool, sections ...func()) {
	t := c.team
	gen := c.wsGen
	c.wsGen++
	if len(sections) > 0 {
		ws := t.workshareAt(gen)
		for {
			idx := int(ws.next.Add(1)) - 1
			if idx >= len(sections) {
				break
			}
			sections[idx]()
		}
		t.finishWorkshare(ws)
	}
	if !nowait {
		c.Barrier()
	}
}

// Lock is a runtime lock (omp_lock_t analog) backed by the thread layer's
// mutual-exclusion primitive — an MRAPI mutex under MCALayer.
type Lock struct {
	rt *Runtime
	m  RuntimeMutex
}

// NewLock creates a lock (omp_init_lock).
func (r *Runtime) NewLock() (*Lock, error) {
	m, err := r.layer.NewMutex()
	if err != nil {
		return nil, err
	}
	return &Lock{rt: r, m: m}, nil
}

// Lock acquires the lock (omp_set_lock). Pass the calling thread's Context
// inside parallel regions; nil means the initial thread.
func (l *Lock) Lock(c *Context) {
	l.m.Lock(widOf(c))
}

// Unlock releases the lock (omp_unset_lock).
func (l *Lock) Unlock(c *Context) {
	l.m.Unlock(widOf(c))
}

// widOf resolves a Context to its layer-level worker id for lock
// attribution; nil (the initial thread, outside any region) maps to the
// master identity.
func widOf(c *Context) int {
	if c == nil {
		return 0
	}
	return c.wid
}
