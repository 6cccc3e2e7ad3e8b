package core

import (
	"sync/atomic"
	"testing"

	"openmpmca/internal/mrapi"
	"openmpmca/internal/platform"
)

func newMCA(t *testing.T, opts ...MCAOption) *MCALayer {
	t.Helper()
	l, err := NewMCALayer(platform.T4240RDB().NewSystem(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestMCALayerNumProcsFromMetadata(t *testing.T) {
	l := newMCA(t)
	defer l.Close()
	if got := l.NumProcs(); got != 24 {
		t.Errorf("NumProcs = %d, want 24 (T4240 metadata)", got)
	}
	p := newMCAOnBoard(t, platform.P4080DS())
	defer p.Close()
	if got := p.NumProcs(); got != 8 {
		t.Errorf("P4080 NumProcs = %d, want 8", got)
	}
}

func newMCAOnBoard(t *testing.T, b *platform.Board) *MCALayer {
	t.Helper()
	l, err := NewMCALayer(b.NewSystem())
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestMCALayerRegistersWorkerNodes(t *testing.T) {
	// Paper §5B1: each forked worker thread is represented by an MRAPI
	// node registered in the domain's global database.
	l := newMCA(t)
	rt, err := New(WithLayer(l), WithNumThreads(6))
	if err != nil {
		t.Fatal(err)
	}
	dom, err := l.System().Domain(MCADomain)
	if err != nil {
		t.Fatal(err)
	}
	// Before any region only the master node exists.
	if got := dom.NumNodes(); got != 1 {
		t.Errorf("nodes before fork = %d, want 1", got)
	}
	var seen atomic.Int32
	_ = rt.Parallel(func(c *Context) { seen.Add(1) })
	if seen.Load() != 6 {
		t.Fatalf("activations = %d", seen.Load())
	}
	// Master + 5 pooled workers stay registered between regions (pool
	// reuse, §5B1).
	if got := dom.NumNodes(); got != 6 {
		t.Errorf("nodes after fork = %d, want 6", got)
	}
	// Worker node ids follow the scheme base+wid.
	if _, err := dom.Node(mcaWorkerBase + 1); err != nil {
		t.Errorf("worker node 1 not registered: %v", err)
	}
	// Close finalizes everything.
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if got := dom.NumNodes(); got != 0 {
		t.Errorf("nodes after close = %d, want 0", got)
	}
}

func TestMCALayerAllocGoesThroughShmem(t *testing.T) {
	l := newMCA(t)
	defer l.Close()
	buf, err := l.Alloc(128)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != 128 {
		t.Errorf("alloc len = %d", len(buf))
	}
	// The allocation must exist as a malloc-kind shmem segment in the
	// MRAPI database.
	dom, _ := l.System().Domain(MCADomain)
	node, _ := dom.Node(mcaMasterNode)
	seg, err := node.ShmemGet(mcaShmemBase)
	if err != nil {
		t.Fatalf("shmem not registered: %v", err)
	}
	if seg.Attributes().Kind != mrapi.ShmemMalloc {
		t.Errorf("kind = %v, want malloc", seg.Attributes().Kind)
	}
}

func TestMCALayerMutexIsMRAPIMutex(t *testing.T) {
	l := newMCA(t)
	defer l.Close()
	m, err := l.NewMutex()
	if err != nil {
		t.Fatal(err)
	}
	dom, _ := l.System().Domain(MCADomain)
	node, _ := dom.Node(mcaMasterNode)
	if _, err := node.MutexGet(mcaMutexBase); err != nil {
		t.Fatalf("mutex not in MRAPI database: %v", err)
	}
	m.Lock(0)
	m.Unlock(0)
}

func TestMCALayerBrokenMutexInjection(t *testing.T) {
	l := newMCA(t, WithBrokenMutex())
	defer l.Close()
	m, err := l.NewMutex()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.(brokenMutex); !ok {
		t.Errorf("expected brokenMutex, got %T", m)
	}
}

func TestMCALayerCloseIdempotent(t *testing.T) {
	l := newMCA(t)
	if _, err := l.Alloc(64); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Errorf("second close = %v", err)
	}
}

func TestMCALayerDistinctWorkersCanContend(t *testing.T) {
	// Two different worker ids map to two different MRAPI nodes, so the
	// MRAPI self-deadlock detection must NOT fire when two workers
	// serialize on a critical mutex.
	l := newMCA(t)
	rt, err := New(WithLayer(l), WithNumThreads(8))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	count := 0
	if err := rt.Parallel(func(c *Context) {
		for i := 0; i < 100; i++ {
			c.Critical(func() { count++ })
		}
	}); err != nil {
		t.Fatal(err)
	}
	if count != 800 {
		t.Errorf("count = %d, want 800", count)
	}
}

// TestMCACriticalAllocs is a count guard: entering a known critical
// section through the MCA layer uncontended — name lookup, node lookup,
// MRAPI lock and unlock — allocates nothing.
func TestMCACriticalAllocs(t *testing.T) {
	rt, err := New(WithLayer(newMCA(t)))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	count := 0
	if err := rt.ParallelN(1, func(c *Context) {
		fn := func() { count++ }
		c.Critical(fn) // first entry creates the section's mutex
		if n := testing.AllocsPerRun(200, func() { c.Critical(fn) }); n != 0 {
			t.Errorf("uncontended MCA Critical allocates %.1f objects, want 0", n)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if count == 0 {
		t.Error("critical body never ran")
	}
}

func TestMCALayerInsideHypervisorPartition(t *testing.T) {
	// §4A put to work: an OpenMP runtime deployed in one hypervisor
	// partition must size itself to the partition's CPUs, not the board's.
	hv, err := platform.NewHypervisor(platform.T4240RDB())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hv.CreatePartition("guest", platform.GuestLinux, []int{0, 1, 2, 3, 4}, 1024); err != nil {
		t.Fatal(err)
	}
	sys, err := hv.PartitionSystem("guest")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewMCALayer(sys)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(WithLayer(l))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if rt.NumThreads() != 5 {
		t.Errorf("partition team size = %d, want 5", rt.NumThreads())
	}
	var n atomic.Int32
	if err := rt.Parallel(func(c *Context) { n.Add(1) }); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 5 {
		t.Errorf("activations = %d, want 5", n.Load())
	}
}

func TestTeamShmemDoesNotLeakAcrossRegions(t *testing.T) {
	// Every region allocates its team bookkeeping block through MRAPI; it
	// must be released at region end (gomp_free), or a long-lived runtime
	// accumulates segments in the domain database. With team leasing off,
	// the original per-region free contract holds exactly.
	l := newMCA(t)
	rt, err := New(WithLayer(l), WithNumThreads(4), WithTeamLeasing(false))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	dom, err := l.System().Domain(MCADomain)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := rt.Parallel(func(c *Context) {
			// Nested serialized regions allocate and free too.
			_ = c.Parallel(func(*Context) {})
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := dom.NumShmems(); got != 0 {
		t.Errorf("%d shmem segments leaked after 50 regions", got)
	}
}

func TestLeasedTeamShmemBoundedAndDrainedAtClose(t *testing.T) {
	// With leasing on (the default), cached teams legitimately keep their
	// bookkeeping segments warm between regions — but the cache is bounded
	// per team size and Close must give every cached segment back.
	l := newMCA(t)
	rt, err := New(WithLayer(l), WithNumThreads(4))
	if err != nil {
		t.Fatal(err)
	}
	dom, err := l.System().Domain(MCADomain)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := rt.Parallel(func(c *Context) {
			_ = c.Parallel(func(*Context) {})
		}); err != nil {
			t.Fatal(err)
		}
	}
	// One sequential caller warms one outer 4-thread team; each of its
	// four threads leases a serialized team of one for the nested region,
	// and as many of those as ran at once stay cached.
	if got := dom.NumShmems(); got < 1 || got > 1+4 {
		t.Errorf("%d live shmem segments after 50 leased regions, want 1..5", got)
	}
	st := rt.Stats().Snapshot()
	if st.LeaseHits == 0 {
		t.Error("no lease hits across 50 sequential regions")
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if got := dom.NumShmems(); got != 0 {
		t.Errorf("%d shmem segments leaked after Close drained the team cache", got)
	}
}

func TestMCALayerFreeUnknownBufferIgnored(t *testing.T) {
	l := newMCA(t)
	defer l.Close()
	l.Free(nil)
	l.Free(make([]byte, 8)) // not from Alloc: no-op
	buf, err := l.Alloc(32)
	if err != nil {
		t.Fatal(err)
	}
	l.Free(buf)
	l.Free(buf) // double free: no-op
}

func TestMCALayerFreeByBasePointerHandlesReslices(t *testing.T) {
	l := newMCA(t)
	defer l.Close()
	buf, err := l.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.LiveAllocs(); got != 1 {
		t.Fatalf("LiveAllocs = %d, want 1", got)
	}
	// A reslice that keeps the base pointer — even zero-length — must
	// release the segment; the seed's &buf[0] key leaked buf[:0].
	l.Free(buf[:0])
	if got := l.LiveAllocs(); got != 0 {
		t.Errorf("LiveAllocs after Free(buf[:0]) = %d, want 0 (segment leaked)", got)
	}
	if got := l.FreeMisses(); got != 0 {
		t.Errorf("FreeMisses = %d, want 0", got)
	}
}

func TestMCALayerFreeSubSliceCountsAsLeak(t *testing.T) {
	l := newMCA(t)
	defer l.Close()
	buf, err := l.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	// buf[1:] has a different base: the segment must stay live and the
	// miss must be visible through the leak accessors.
	l.Free(buf[1:])
	if got := l.LiveAllocs(); got != 1 {
		t.Errorf("LiveAllocs after sub-slice Free = %d, want 1", got)
	}
	if got := l.FreeMisses(); got != 1 {
		t.Errorf("FreeMisses = %d, want 1", got)
	}
	// The real buffer still frees normally afterwards.
	l.Free(buf)
	if got := l.LiveAllocs(); got != 0 {
		t.Errorf("LiveAllocs after real Free = %d, want 0", got)
	}
}

func TestMCALayerAllocDebugTrapsSubSliceFree(t *testing.T) {
	l := newMCA(t, WithAllocDebug())
	defer l.Close()
	buf, err := l.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("Free of a live allocation's sub-slice did not panic in debug mode")
		}
	}()
	l.Free(buf[8:])
}

func TestMCALayerAllocDebugIgnoresForeignBuffer(t *testing.T) {
	// A buffer that never came from Alloc is a miss, not a trap, even in
	// debug mode.
	l := newMCA(t, WithAllocDebug())
	defer l.Close()
	if _, err := l.Alloc(64); err != nil {
		t.Fatal(err)
	}
	l.Free(make([]byte, 16))
	if got := l.FreeMisses(); got != 1 {
		t.Errorf("FreeMisses = %d, want 1", got)
	}
}

// TestMCARestartAllocs bounds what one MCA runtime boot costs: the
// board's MRAPI universe, the layer, a 4-thread runtime, its first (empty)
// region and Close. Beyond what the native layer allocates, a boot should
// pay for the tree's arena and for MRAPI node and thread registration.
func TestMCARestartAllocs(t *testing.T) {
	restart := func() {
		l, err := NewMCALayer(platform.T4240RDB().NewSystem())
		if err != nil {
			t.Fatal(err)
		}
		rt, err := New(WithLayer(l), WithNumThreads(4))
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Parallel(func(*Context) {}); err != nil {
			t.Fatal(err)
		}
		if err := rt.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(20, restart); n > 115 {
		t.Errorf("an MCA restart allocates %.0f objects, want <= 115", n)
	}
}

// TestStartWorkerFailurePublishesNoNode: a worker whose thread never
// started leaves no node behind, neither in the domain nor in the
// layer's lookup, so its id still resolves to the master.
func TestStartWorkerFailurePublishesNoNode(t *testing.T) {
	l := newMCA(t)
	defer l.Close()
	if _, err := l.StartWorker(3, nil); err == nil {
		t.Fatal("StartWorker with no loop succeeded")
	}
	if got := l.node(3); got != l.master {
		t.Errorf("failed worker 3 resolves to %v, want the master %v", got, l.master)
	}
	dom, err := l.System().Domain(MCADomain)
	if err != nil {
		t.Fatal(err)
	}
	if got := dom.NumNodes(); got != 1 {
		t.Errorf("nodes after a failed StartWorker = %d, want 1", got)
	}
}

// TestMCANodesPastTheBoard: teams larger than the board's processor count
// and concurrent forking callers each lock under their own node, and
// Close retires every one of them.
func TestMCANodesPastTheBoard(t *testing.T) {
	l := newMCA(t)
	rt, err := New(WithLayer(l), WithNumThreads(40))
	if err != nil {
		t.Fatal(err)
	}
	var hits atomic.Int64
	done := make(chan error, 6)
	for g := 0; g < cap(done); g++ {
		go func() {
			done <- rt.Parallel(func(c *Context) {
				for i := 0; i < 20; i++ {
					c.Critical(func() { hits.Add(1) })
				}
			})
		}()
	}
	for g := 0; g < cap(done); g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if got := hits.Load(); got != 6*40*20 {
		t.Errorf("critical entries = %d, want %d", got, 6*40*20)
	}
	for wid := 1; wid < 40; wid++ {
		if got := l.node(wid); got == l.master {
			t.Errorf("worker %d resolves to the master", wid)
		}
	}
	dom, err := l.System().Domain(MCADomain)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if got := dom.NumNodes(); got != 0 {
		t.Errorf("nodes after close = %d, want 0", got)
	}
	if got := l.node(1); got != l.master {
		t.Errorf("worker 1 after close resolves to %v, want the master", got)
	}
}
