package core

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"unsafe"

	"openmpmca/internal/mrapi"
)

// MCADomain is the MRAPI domain the OpenMP runtime claims for itself.
const MCADomain mrapi.DomainID = 1

// mcaMasterNode is the node ID of the initial (master) thread; worker
// nodes are numbered from mcaWorkerBase+1 upward, mirroring the paper's
// scheme of registering every worker thread as an MRAPI node (§5B1).
const (
	mcaMasterNode mrapi.NodeID = 0
	mcaWorkerBase mrapi.NodeID = 100
	mcaCallerBase mrapi.NodeID = 0x10000
	mcaShmemBase  mrapi.Key    = 0x5000
	mcaMutexBase  mrapi.Key    = 0x9000
)

// MCAOption configures an MCALayer.
type MCAOption func(*MCALayer)

// WithBrokenMutex injects the fault the paper reports finding with its
// validation suite (§6A): the layer hands out non-functional mutexes whose
// lock/unlock operations do nothing. Used by the validation package to
// prove the suite detects the bug; never enable it elsewhere.
func WithBrokenMutex() MCAOption {
	return func(l *MCALayer) { l.brokenMutex = true }
}

// WithAllocDebug makes Free trap (panic) when handed a sub-slice of a live
// Alloc result instead of silently leaking the MRAPI segment — the debug
// mode for hunting gomp_free misuse. Without it such frees are counted in
// FreeMisses and the segment stays live until Close.
func WithAllocDebug() MCAOption {
	return func(l *MCALayer) { l.allocDebug = true }
}

// MCALayer implements ThreadLayer on top of MRAPI, reproducing the
// paper's MCA-libGOMP design:
//
//   - every pool worker is an MRAPI node whose thread is created through
//     the node-management extension (mrapi_thread_create, Listing 2);
//   - runtime allocations go through the shared-memory/malloc extension
//     (mrapi_shmem_create_malloc, Listing 3);
//   - critical-section mutexes are MRAPI mutexes (Listing 4);
//   - the processor count comes from the MRAPI metadata resource tree
//     (§5B4).
type MCALayer struct {
	sys    *mrapi.System
	master *mrapi.Node

	nodes atomic.Pointer[nodeTable] // worker id -> node, read without mu

	mu        sync.Mutex
	callers   []*mrapi.Node // lazily registered caller nodes, finalized at Close
	nextShmem mrapi.Key
	nextMutex mrapi.Key
	shmems    map[*byte]*mcaAlloc // live allocations, keyed by base pointer
	mutexes   []*mrapi.Mutex
	closed    bool

	// freeMisses counts Free calls that matched no live allocation —
	// leaked MRAPI segment keys unless the buffer never came from Alloc.
	freeMisses int

	brokenMutex bool
	allocDebug  bool
}

// mcaAlloc is one live Alloc result: the backing MRAPI segment and the
// buffer it returned (kept so sub-slice frees can be diagnosed).
type mcaAlloc struct {
	seg *mrapi.Shmem
	buf []byte
}

// NewMCALayer binds an MCA thread layer to the given MRAPI universe
// (typically board.NewSystem()). It initializes the master node and reads
// the metadata tree.
func NewMCALayer(sys *mrapi.System, opts ...MCAOption) (*MCALayer, error) {
	master, err := sys.Initialize(MCADomain, mcaMasterNode, &mrapi.NodeAttributes{
		Name:     "omp-master",
		Affinity: -1,
	})
	if err != nil {
		return nil, fmt.Errorf("core: initializing MRAPI master node: %w", err)
	}
	l := &MCALayer{
		sys:       sys,
		master:    master,
		nextShmem: mcaShmemBase,
		nextMutex: mcaMutexBase,
		shmems:    make(map[*byte]*mcaAlloc),
	}
	l.nodes.Store(&nodeTable{workers: []*mrapi.Node{master}})
	for _, o := range opts {
		o(l)
	}
	return l, nil
}

// nodeTable maps worker ids to nodes: workers[wid] for the master (0) and
// pool workers, callers[-wid] for leased callers. It is an immutable
// snapshot, replaced whole under the layer's mu, so the lock path
// resolves a node with one atomic load and never touches mu.
type nodeTable struct {
	workers, callers []*mrapi.Node
}

// noNodes is the table of a closed layer: every lookup misses, so every
// id resolves to the master fallback.
var noNodes nodeTable

// get returns wid's node, or nil if it has none.
func (t *nodeTable) get(wid int) *mrapi.Node {
	if wid >= 0 {
		if wid < len(t.workers) {
			return t.workers[wid]
		}
	} else if -wid < len(t.callers) {
		return t.callers[-wid]
	}
	return nil
}

// setNodeLocked publishes a copy of the node table with wid bound to n,
// or unbound when n is nil. Only the slice wid lives in is copied.
// Callers hold l.mu.
func (l *MCALayer) setNodeLocked(wid int, n *mrapi.Node) {
	next := *l.nodes.Load()
	if wid >= 0 {
		next.workers = withNode(next.workers, wid, n)
	} else {
		next.callers = withNode(next.callers, -wid, n)
	}
	l.nodes.Store(&next)
}

// withNode returns a copy of nodes, long enough to hold index i, with
// nodes[i] set to n.
func withNode(nodes []*mrapi.Node, i int, n *mrapi.Node) []*mrapi.Node {
	c := make([]*mrapi.Node, max(len(nodes), i+1))
	copy(c, nodes)
	c[i] = n
	return c
}

// Name implements ThreadLayer.
func (l *MCALayer) Name() string { return "mca" }

// System exposes the underlying MRAPI universe (used by tests and tools).
func (l *MCALayer) System() *mrapi.System { return l.sys }

// NumProcs implements ThreadLayer by walking the MRAPI metadata resource
// tree for online hardware threads (§5B4).
func (l *MCALayer) NumProcs() int { return l.master.ProcessorsOnline() }

// StartWorker implements ThreadLayer: it initializes an MRAPI node for the
// worker and creates its thread through the node-management extension. The
// node is registered in the domain's global database for the worker's
// lifetime, exactly as the paper's runtime registers each forked thread,
// and published for lock attribution once its thread has started.
func (l *MCALayer) StartWorker(wid int, loop func()) (Worker, error) {
	name := "omp-worker-" + strconv.Itoa(wid)
	node, err := l.sys.Initialize(MCADomain, mcaWorkerBase+mrapi.NodeID(wid), &mrapi.NodeAttributes{
		Name:     name,
		Affinity: wid,
	})
	if err != nil {
		return nil, fmt.Errorf("core: initializing MRAPI node for worker %d: %w", wid, err)
	}
	th, err := node.SpawnThread(mrapi.ThreadParams{
		Name:  name,
		Start: loop,
	})
	if err != nil {
		_ = node.Finalize()
		return nil, fmt.Errorf("core: spawning MRAPI thread for worker %d: %w", wid, err)
	}
	l.mu.Lock()
	l.setNodeLocked(wid, node)
	l.mu.Unlock()
	return &mcaWorker{layer: l, wid: wid, node: node, thread: th}, nil
}

type mcaWorker struct {
	layer  *MCALayer
	wid    int
	node   *mrapi.Node
	thread *mrapi.NodeThread
}

// Join waits for the worker's loop to return, then finalizes its MRAPI
// node — the paper's post-region rundown (§5B1): exit the thread, release
// the node's registration.
func (w *mcaWorker) Join() {
	w.thread.Join()
	w.layer.mu.Lock()
	w.layer.setNodeLocked(w.wid, nil)
	w.layer.mu.Unlock()
	_ = w.node.Finalize()
}

// node resolves a worker id to its MRAPI node, falling back to the master
// for ids with no node (e.g. lock use before workers exist).
//
// Negative ids are leased caller identities (see Runtime.acquireMasterWID):
// the forking goroutine of a concurrent region, which is not a pool worker
// but still needs a distinct lock-attribution node — MRAPI deadlock-checks
// mutexes per owning node, so two concurrent masters sharing one node
// would trip a false self-deadlock on the same critical mutex. Caller
// nodes are registered in the domain database lazily on first lock use
// and finalized at Close.
func (l *MCALayer) node(wid int) *mrapi.Node {
	if n := l.nodes.Load().get(wid); n != nil {
		return n
	}
	l.mu.Lock()
	closed := l.closed
	l.mu.Unlock()
	if wid >= 0 || closed {
		return l.master
	}
	n, err := l.sys.Initialize(MCADomain, mcaCallerBase+mrapi.NodeID(-wid), &mrapi.NodeAttributes{
		Name:     fmt.Sprintf("omp-caller-%d", -wid),
		Affinity: -1,
	})
	if err != nil {
		// Degraded attribution: the master node stands in. Concurrent
		// callers contending for one mutex may then trip the MRAPI
		// self-deadlock check, which surfaces as a contained region panic
		// rather than a hang.
		return l.master
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if raced := l.nodes.Load().get(wid); raced != nil {
		// Another goroutine registered this id first; ours is redundant.
		_ = n.Finalize()
		return raced
	}
	if l.closed {
		_ = n.Finalize()
		return l.master
	}
	l.setNodeLocked(wid, n)
	l.callers = append(l.callers, n)
	return n
}

// NewMutex implements ThreadLayer with an MRAPI mutex created in the
// domain database (Listing 4).
func (l *MCALayer) NewMutex() (RuntimeMutex, error) {
	if l.brokenMutex {
		return brokenMutex{}, nil
	}
	l.mu.Lock()
	key := l.nextMutex
	l.nextMutex++
	l.mu.Unlock()
	m, err := l.master.MutexCreate(key, nil)
	if err != nil {
		return nil, fmt.Errorf("core: creating MRAPI mutex: %w", err)
	}
	l.mu.Lock()
	l.mutexes = append(l.mutexes, m)
	l.mu.Unlock()
	return &mcaMutex{layer: l, m: m}, nil
}

type mcaMutex struct {
	layer *MCALayer
	m     *mrapi.Mutex
}

// Lock maps onto mrapi_mutex_lock with an infinite timeout, as in the
// paper's gomp_mrapi_mutex_lock (Listing 4).
func (mm *mcaMutex) Lock(wid int) {
	node := mm.layer.node(wid)
	if _, err := mm.m.Lock(node, mrapi.TimeoutInfinite); err != nil {
		panic(fmt.Sprintf("core: MRAPI mutex lock failed: %v", err))
	}
}

// Unlock maps onto mrapi_mutex_unlock.
func (mm *mcaMutex) Unlock(wid int) {
	node := mm.layer.node(wid)
	if err := mm.m.Unlock(node, 0); err != nil {
		panic(fmt.Sprintf("core: MRAPI mutex unlock failed: %v", err))
	}
}

// brokenMutex reproduces the paper's §6A bug: a synchronization primitive
// that silently does nothing, making critical constructs racy.
type brokenMutex struct{}

func (brokenMutex) Lock(int)   {}
func (brokenMutex) Unlock(int) {}

// Alloc implements ThreadLayer through the shared-memory/malloc extension
// (Listing 3): a heap-kind MRAPI shmem segment attached by the master
// node. Failure maps to an error the runtime reports as gomp_fatal would.
func (l *MCALayer) Alloc(size int) ([]byte, error) {
	if size <= 0 {
		return nil, fmt.Errorf("core: MRAPI allocation of %d bytes", size)
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, fmt.Errorf("core: MRAPI allocation after layer close")
	}
	key := l.nextShmem
	l.nextShmem++
	l.mu.Unlock()
	buf, seg, err := l.master.ShmemCreateMalloc(key, size)
	if err != nil {
		return nil, fmt.Errorf("core: MRAPI failed memory allocation: %w", err)
	}
	l.mu.Lock()
	if l.closed {
		// Lost the race with Close: release the fresh segment instead of
		// stranding it past the layer's lifetime.
		l.mu.Unlock()
		_ = seg.Detach(l.master)
		_ = seg.Delete(l.master)
		return nil, fmt.Errorf("core: MRAPI allocation after layer close")
	}
	l.shmems[unsafe.SliceData(buf)] = &mcaAlloc{seg: seg, buf: buf}
	l.mu.Unlock()
	return buf, nil
}

// Free implements ThreadLayer: detach and delete the backing MRAPI
// segment, releasing its key — the gomp_free counterpart of Listing 3.
//
// Buffers are matched by base pointer (unsafe.SliceData), so any reslice
// that keeps the base — buf[:0], buf[:n] — frees the segment correctly;
// the seed's &buf[0] key silently leaked zero-length reslices. A buffer
// matching no live allocation is counted in FreeMisses; under
// WithAllocDebug a miss that points *inside* a live allocation (a
// sub-slice like buf[1:], a guaranteed segment-key leak) panics instead.
func (l *MCALayer) Free(buf []byte) {
	if cap(buf) == 0 {
		return
	}
	base := unsafe.SliceData(buf[:cap(buf)])
	l.mu.Lock()
	a, ok := l.shmems[base]
	if ok {
		delete(l.shmems, base)
		l.mu.Unlock()
		_ = a.seg.Detach(l.master)
		_ = a.seg.Delete(l.master)
		return
	}
	l.freeMisses++
	trap := l.allocDebug && l.insideLiveAllocLocked(base)
	l.mu.Unlock()
	if trap {
		panic("core: MCALayer.Free of a sub-slice of a live MRAPI allocation (segment key would leak)")
	}
}

// insideLiveAllocLocked reports whether p points strictly inside one of
// the live allocations' buffers. Callers hold l.mu.
func (l *MCALayer) insideLiveAllocLocked(p *byte) bool {
	addr := uintptr(unsafe.Pointer(p))
	for base, a := range l.shmems {
		lo := uintptr(unsafe.Pointer(base))
		if addr > lo && addr < lo+uintptr(len(a.buf)) {
			return true
		}
	}
	return false
}

// LiveAllocs reports the number of Alloc segments not yet freed — the
// layer's leak count if the runtime is done with all of them.
func (l *MCALayer) LiveAllocs() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.shmems)
}

// FreeMisses reports how many Free calls matched no live allocation
// (sub-slices, double frees, foreign buffers).
func (l *MCALayer) FreeMisses() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.freeMisses
}

// Close finalizes the master node and releases every MRAPI object the
// layer created.
func (l *MCALayer) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	// One store retires every node at once: each later lookup falls back
	// to the master.
	l.nodes.Store(&noNodes)
	shmems := l.shmems
	mutexes := l.mutexes
	callers := l.callers
	l.shmems, l.mutexes, l.callers = nil, nil, nil
	l.mu.Unlock()

	for _, a := range shmems {
		_ = a.seg.Detach(l.master)
		_ = a.seg.Delete(l.master)
	}
	for _, m := range mutexes {
		_ = m.Delete(l.master)
	}
	for _, n := range callers {
		_ = n.Finalize()
	}
	return l.master.Finalize()
}
