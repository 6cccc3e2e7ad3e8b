package core

import (
	"runtime"
	"sync"
)

// ThreadLayer abstracts the services the OpenMP runtime needs from its
// substrate — the exact three services the paper re-routes through MRAPI:
// worker-thread management, runtime memory allocation, and low-level
// mutual exclusion, plus the processor-count metadata query.
//
// Two implementations exist: NativeLayer (stock libGOMP stand-in) and
// MCALayer (the paper's MCA-libGOMP). The runtime above is byte-for-byte
// identical over either, which is what makes the EPCC overhead ratio
// (Table I) a measurement of the MCA indirection alone.
type ThreadLayer interface {
	// Name identifies the layer in reports ("native", "mca").
	Name() string
	// NumProcs reports the number of processors the layer believes are
	// online; the runtime sizes default teams with it.
	NumProcs() int
	// StartWorker launches persistent pool worker wid running loop; the
	// worker survives until the loop returns. The loop may act as wid
	// (take a RuntimeMutex with it) only on work handed to it after
	// StartWorker returns, as the pool's dispatch does: until then the
	// MCA layer attributes wid's locks to the master's node.
	StartWorker(wid int, loop func()) (Worker, error)
	// NewMutex creates a mutual-exclusion primitive for critical sections
	// and runtime locks. Lock/Unlock take the worker id of the caller (0
	// for the master) because MRAPI mutexes are owned by nodes.
	NewMutex() (RuntimeMutex, error)
	// Alloc obtains runtime-managed memory (gomp_malloc, paper
	// Listing 3): team and work-share bookkeeping blocks come from here.
	Alloc(size int) ([]byte, error)
	// Free returns memory obtained from Alloc (gomp_free); the runtime
	// calls it when a team's bookkeeping block dies at region end, so
	// long-lived runtimes do not accumulate segments. Buffers not
	// produced by Alloc are ignored.
	Free(buf []byte)
	// Close releases the layer's resources. The runtime guarantees all
	// workers have exited before Close.
	Close() error
}

// Worker is a handle to a pool worker thread.
type Worker interface {
	// Join blocks until the worker's loop has returned.
	Join()
}

// RuntimeMutex is the lock primitive a ThreadLayer provides. wid
// identifies the calling worker (0 = master thread) so node-owned
// implementations (MRAPI) can attribute the acquisition.
type RuntimeMutex interface {
	Lock(wid int)
	Unlock(wid int)
}

// ----- Native layer -----

// NativeLayer implements ThreadLayer directly on the Go runtime:
// goroutines for workers, sync.Mutex for exclusion, the Go allocator for
// memory. It stands in for the proprietary GNU OpenMP runtime the paper
// benchmarks against.
type NativeLayer struct {
	nprocs int
}

// NewNativeLayer creates a native layer reporting nprocs processors; 0
// means "ask the host" (runtime.NumCPU). The EPCC and NAS harnesses pass
// the modeled board's thread count so both layers see the same topology.
func NewNativeLayer(nprocs int) *NativeLayer {
	if nprocs <= 0 {
		nprocs = runtime.NumCPU()
	}
	return &NativeLayer{nprocs: nprocs}
}

// Name implements ThreadLayer.
func (l *NativeLayer) Name() string { return "native" }

// NumProcs implements ThreadLayer.
func (l *NativeLayer) NumProcs() int { return l.nprocs }

// StartWorker implements ThreadLayer with a plain goroutine.
func (l *NativeLayer) StartWorker(wid int, loop func()) (Worker, error) {
	w := &nativeWorker{done: make(chan struct{})}
	go func() {
		defer close(w.done)
		loop()
	}()
	return w, nil
}

type nativeWorker struct{ done chan struct{} }

func (w *nativeWorker) Join() { <-w.done }

// NewMutex implements ThreadLayer with a sync.Mutex.
func (l *NativeLayer) NewMutex() (RuntimeMutex, error) { return &nativeMutex{}, nil }

type nativeMutex struct{ mu sync.Mutex }

func (m *nativeMutex) Lock(int)   { m.mu.Lock() }
func (m *nativeMutex) Unlock(int) { m.mu.Unlock() }

// Alloc implements ThreadLayer with make.
func (l *NativeLayer) Alloc(size int) ([]byte, error) { return make([]byte, size), nil }

// Free implements ThreadLayer; the garbage collector reclaims native
// allocations.
func (l *NativeLayer) Free([]byte) {}

// Close implements ThreadLayer; the native layer holds nothing.
func (l *NativeLayer) Close() error { return nil }
