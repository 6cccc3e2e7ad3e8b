package mrapi

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// NodeAttributes carry optional per-node configuration supplied at
// initialization time (mrapi_node_init_attributes / mrapi_initialize).
type NodeAttributes struct {
	// Name is a human-readable label used in diagnostics and the metadata
	// tree ("core0-worker", "dsp-offload", ...).
	Name string
	// Affinity optionally names the hardware thread (platform CPU index)
	// this node is pinned to; -1 means unpinned. The simulated platform
	// model consumes this; the host Go scheduler is unaffected.
	Affinity int
	// MemDomain is the memory domain (e.g. DDR controller index) the node
	// allocates from. Shared-memory segments with a conflicting placement
	// refuse attachment with ErrShmNodesIncompat.
	MemDomain int
}

// DefaultNodeAttributes returns the attribute set used when Initialize is
// passed nil: unnamed, unpinned (Affinity -1), memory domain 0. Callers that
// build a NodeAttributes by hand and want an unpinned node must set
// Affinity to -1 themselves (a zero Affinity pins to hardware thread 0).
func DefaultNodeAttributes() NodeAttributes {
	return NodeAttributes{Affinity: -1, MemDomain: 0}
}

func defaultNodeAttributes() NodeAttributes { return DefaultNodeAttributes() }

// Node is an independent MRAPI unit of execution. A node may map onto a
// process, a thread, a thread pool, or a hardware accelerator; this
// implementation maps it onto the calling goroutine plus any worker threads
// spawned through the paper's thread extension (SpawnThread).
type Node struct {
	domain *Domain
	id     NodeID
	attrs  NodeAttributes

	// live is the node's initialized state. Finalize clears it under mu,
	// so SpawnThread (which checks it under mu) cannot register a thread
	// Finalize would miss; checkLive, which guards every resource
	// operation, reads it without a lock.
	live       atomic.Bool
	mu         sync.Mutex
	threads    map[uint64]*NodeThread
	nextThread uint64

	// statistics, updated atomically
	locksTaken   atomic.Uint64
	shmemAttachs atomic.Uint64
}

// Initialize creates the node (domainID, nodeID) in the system and registers
// it in the domain's global database, mirroring mrapi_initialize. It fails
// with ErrNodeInitFailed if the node ID is already registered in the domain.
func (s *System) Initialize(domainID DomainID, nodeID NodeID, attrs *NodeAttributes) (*Node, error) {
	d := s.domain(domainID)

	a := defaultNodeAttributes()
	if attrs != nil {
		a = *attrs
	}

	n := &Node{
		domain: d,
		id:     nodeID,
		attrs:  a,
	}
	n.live.Store(true)

	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.nodes[nodeID]; dup {
		return nil, ErrNodeInitFailed
	}
	insert(&d.nodes, nodeID, n)
	return n, nil
}

// Finalize tears the node down: joins any still-running worker threads,
// then removes the node from the domain database (mrapi_finalize). Further
// use of the node yields ErrNodeNotInit.
func (n *Node) Finalize() error {
	n.mu.Lock()
	if !n.live.Load() {
		n.mu.Unlock()
		return ErrNodeNotInit
	}
	n.live.Store(false)
	threads := make([]*NodeThread, 0, len(n.threads))
	for _, t := range n.threads {
		threads = append(threads, t)
	}
	n.threads = nil
	n.mu.Unlock()

	for _, t := range threads {
		t.Join()
	}

	n.domain.mu.Lock()
	delete(n.domain.nodes, n.id)
	n.domain.mu.Unlock()
	return nil
}

// Initialized reports whether the node is live (mrapi_initialized).
func (n *Node) Initialized() bool { return n.live.Load() }

// ID returns the node's identifier (mrapi_node_id_get).
func (n *Node) ID() NodeID { return n.id }

// Domain returns the node's domain (mrapi_domain_id_get gives its ID).
func (n *Node) Domain() *Domain { return n.domain }

// Attributes returns a copy of the node's attributes.
func (n *Node) Attributes() NodeAttributes { return n.attrs }

// LocksTaken reports how many mutex/semaphore/rwlock acquisitions the node
// has performed; used by the trace layer and tests.
func (n *Node) LocksTaken() uint64 { return n.locksTaken.Load() }

func (n *Node) String() string {
	return fmt.Sprintf("mrapi.Node(d%d,n%d)", n.domain.id, n.id)
}

// checkLive returns ErrNodeNotInit unless the node is initialized. Every
// resource operation calls this first, matching the guard in the paper's
// Listing 2 (mrapi_impl_initialized()).
func (n *Node) checkLive() error {
	if !n.live.Load() {
		return ErrNodeNotInit
	}
	return nil
}

// ----- Node thread extension (paper §5A1, Listing 2) -----

// ThreadState describes a NodeThread's lifecycle phase.
type ThreadState int32

const (
	// ThreadRunning means the worker function is still executing.
	ThreadRunning ThreadState = iota
	// ThreadExited means the worker function returned and the thread's
	// registration has been withdrawn from the node.
	ThreadExited
)

// ThreadParams mirrors mrapi_thread_parameters_t from the paper's node
// extension: the start routine plus an optional label.
type ThreadParams struct {
	// Start is the worker body. Required.
	Start func()
	// Name labels the thread for diagnostics.
	Name string
}

// NodeThread is one worker thread created and managed by a node via the
// paper's mrapi_thread_create extension. It is backed by a goroutine; the
// registration lives in the node so the domain database can enumerate the
// execution resources a node owns.
type NodeThread struct {
	node  *Node
	id    uint64
	name  string
	state atomic.Int32
	done  chan struct{}
}

// SpawnThread implements the paper's mrapi_thread_create: it creates a
// worker thread for the calling node and registers it with the node for
// later management. It fails with ErrNodeNotInit if the node is not live
// and ErrParameter if params.Start is nil.
func (n *Node) SpawnThread(params ThreadParams) (*NodeThread, error) {
	if params.Start == nil {
		return nil, ErrParameter
	}
	n.mu.Lock()
	if !n.live.Load() {
		n.mu.Unlock()
		return nil, ErrNodeNotInit
	}
	n.nextThread++
	t := &NodeThread{
		node: n,
		id:   n.nextThread,
		name: params.Name,
		done: make(chan struct{}),
	}
	insert(&n.threads, t.id, t)
	n.mu.Unlock()

	go func() {
		defer func() {
			t.state.Store(int32(ThreadExited))
			n.mu.Lock()
			if n.threads != nil {
				delete(n.threads, t.id)
			}
			n.mu.Unlock()
			close(t.done)
		}()
		params.Start()
	}()
	return t, nil
}

// Join blocks until the worker function has returned.
func (t *NodeThread) Join() { <-t.done }

// Done exposes the completion channel for select-based joins.
func (t *NodeThread) Done() <-chan struct{} { return t.done }

// State reports the thread's lifecycle phase.
func (t *NodeThread) State() ThreadState { return ThreadState(t.state.Load()) }

// Name returns the label given at spawn time.
func (t *NodeThread) Name() string { return t.name }

// ID returns the node-local thread identifier.
func (t *NodeThread) ID() uint64 { return t.id }

// NumThreads reports how many worker threads the node currently manages.
func (n *Node) NumThreads() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.threads)
}
