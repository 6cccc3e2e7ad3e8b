package mrapi

import (
	"fmt"
	"sync"
)

// DomainID identifies an MRAPI domain — a unique system-global entity that
// groups a team of nodes.
type DomainID uint32

// NodeID identifies an MRAPI node within its domain.
type NodeID uint32

// Key is the integer key under which synchronization and memory primitives
// are registered in a domain's global database (mrapi_*_create key argument).
type Key uint32

// System is the top-level MRAPI universe: the set of domains plus the
// platform metadata (resource tree) the system exposes.
//
// The C reference implementation keeps one shared database per OS; here a
// System is an explicit object so tests and simulated boards can run several
// isolated universes in one process. DefaultSystem mirrors the implicit
// global database.
type System struct {
	mu        sync.RWMutex
	domains   map[DomainID]*Domain // made by the first domain
	resources *Resource            // metadata root; nil until materialized, or none
	meta      Metadata             // source of resources; nil when installed whole
}

// Metadata is a system's platform description when the system builds its
// resource tree only if asked for it.
type Metadata interface {
	// ResourceTree returns a fresh tree for one system; the system
	// materializes it on the first ResourcesGet and keeps it.
	ResourceTree() *Resource
	// ProcessorsOnline counts the hardware threads the tree would carry,
	// less those whose "online" attribute would read false.
	ProcessorsOnline() int
}

// NewSystem creates an empty MRAPI universe exposing the given resource
// tree as its metadata (may be nil for a metadata-less system).
func NewSystem(resources *Resource) *System {
	return &System{resources: resources}
}

// NewSystemFrom creates an empty MRAPI universe whose metadata comes from
// meta: its tree is materialized on the first ResourcesGet, and until
// then ProcessorsOnline asks meta. A universe that is only booted and
// counted never builds a tree.
func NewSystemFrom(meta Metadata) *System {
	return &System{meta: meta}
}

// defaultSystem mirrors the single per-process database of the C
// implementation.
var (
	defaultSystemOnce sync.Once
	defaultSystem     *System
)

// DefaultSystem returns the process-wide MRAPI universe.
func DefaultSystem() *System {
	defaultSystemOnce.Do(func() { defaultSystem = NewSystem(nil) })
	return defaultSystem
}

// SetResources installs (or replaces) the system metadata tree.
func (s *System) SetResources(root *Resource) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.resources, s.meta = root, nil
}

// tree returns the metadata tree, materializing it from the system's
// Metadata on first use; nil when the system has none.
func (s *System) tree() *Resource {
	s.mu.RLock()
	root, meta := s.resources, s.meta
	s.mu.RUnlock()
	if root != nil || meta == nil {
		return root
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.resources == nil && s.meta != nil {
		s.resources = s.meta.ResourceTree()
	}
	return s.resources
}

// domain returns the domain with the given ID, creating it on first use —
// MRAPI domains come into existence when their first node initializes.
func (s *System) domain(id DomainID) *Domain {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.domains[id]
	if !ok {
		d = &Domain{sys: s, id: id}
		insert(&s.domains, id, d)
	}
	return d
}

// Domain looks up an existing domain without creating it.
func (s *System) Domain(id DomainID) (*Domain, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.domains[id]
	if !ok {
		return nil, ErrDomainInvalid
	}
	return d, nil
}

// Domains returns the IDs of all live domains, in unspecified order.
func (s *System) Domains() []DomainID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]DomainID, 0, len(s.domains))
	for id := range s.domains {
		out = append(out, id)
	}
	return out
}

// Domain is one MRAPI domain: its node registry plus the domain-wide global
// database of synchronization and memory primitives that every node in the
// domain can look up by key. Each table is made on its first insert, so a
// domain pays only for the kinds of primitive its nodes create.
type Domain struct {
	sys *System
	id  DomainID

	mu      sync.RWMutex
	nodes   map[NodeID]*Node
	mutexes map[Key]*Mutex
	sems    map[Key]*Semaphore
	rwlocks map[Key]*RWLock
	shmems  map[Key]*Shmem
	rmems   map[Key]*Rmem
}

// insert stores v under k in *m, making the map on first use.
func insert[K comparable, V any](m *map[K]V, k K, v V) {
	if *m == nil {
		*m = make(map[K]V)
	}
	(*m)[k] = v
}

// ID returns the domain's identifier.
func (d *Domain) ID() DomainID { return d.id }

// System returns the universe this domain belongs to.
func (d *Domain) System() *System { return d.sys }

// Nodes returns the IDs of the currently registered nodes.
func (d *Domain) Nodes() []NodeID {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]NodeID, 0, len(d.nodes))
	for id := range d.nodes {
		out = append(out, id)
	}
	return out
}

// NumNodes reports how many nodes are registered in the domain.
func (d *Domain) NumNodes() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.nodes)
}

// NumShmems reports how many shared-memory segments are registered in the
// domain database (diagnostic; leak tests watch it).
func (d *Domain) NumShmems() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.shmems)
}

// Node looks up a registered node by ID.
func (d *Domain) Node(id NodeID) (*Node, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	n, ok := d.nodes[id]
	if !ok {
		return nil, ErrNodeInvalid
	}
	return n, nil
}

func (d *Domain) String() string {
	return fmt.Sprintf("mrapi.Domain(%d)", d.id)
}
