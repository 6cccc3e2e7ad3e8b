package mrapi

import "sync"

// ShmemKind selects which memory substrate backs a shared-memory segment.
type ShmemKind int

const (
	// ShmemSysV models the MRAPI default: a system-level (System-V style)
	// shared-memory segment, the inter-process mechanism. Sizes are rounded
	// up to the platform page size, as the OS would.
	ShmemSysV ShmemKind = iota
	// ShmemMalloc is the paper's extension (Listing 3,
	// mrapi_shmem_create_malloc): the segment lives on the process heap, so
	// threads of one process share it with no IPC machinery. This is what
	// the MCA-backed OpenMP runtime uses for its global runtime state.
	ShmemMalloc
)

func (k ShmemKind) String() string {
	if k == ShmemMalloc {
		return "malloc"
	}
	return "sysv"
}

// PageSize is the platform page size used to round System-V style segments.
const PageSize = 4096

// ShmemAttributes configure a shared-memory segment at creation, mirroring
// mrapi_shmem_attributes_t plus the paper's use_malloc extension flag.
type ShmemAttributes struct {
	// Kind selects heap (malloc extension) or system-level backing.
	Kind ShmemKind
	// MemDomain places the segment in a memory domain (DDR controller
	// index on the modeled board). Nodes whose MemDomain differs cannot
	// attach unless the segment is in domain 0, the interleaved/shared
	// region.
	MemDomain int
}

// Shmem is an MRAPI shared-memory segment: key-addressed, domain-wide, and
// attachable by any compatible node. Unlike Linux SysV shmem, MRAPI shmem
// may be shared by nodes running different OS instances; the simulation
// models that by performing compatibility checks at attach time.
type Shmem struct {
	domain *Domain
	key    Key
	attrs  ShmemAttributes
	buf    []byte

	mu       sync.Mutex
	attached map[NodeID]struct{}
	deleted  bool
	// deleteOnDetach implements the MRAPI rundown: delete marks the
	// segment, and the storage is reclaimed when the last node detaches.
	deleteOnDetach bool
}

// ShmemCreate creates a shared-memory segment of the given size under key
// (mrapi_shmem_create). SysV-kind segments are rounded up to a whole number
// of pages. The creating node is NOT attached automatically, matching the
// spec: creation and attachment are distinct steps.
func (n *Node) ShmemCreate(key Key, size int, attrs *ShmemAttributes) (*Shmem, error) {
	if err := n.checkLive(); err != nil {
		return nil, err
	}
	if size <= 0 {
		return nil, ErrParameter
	}
	a := ShmemAttributes{}
	if attrs != nil {
		a = *attrs
	}
	alloc := size
	if a.Kind == ShmemSysV {
		alloc = (size + PageSize - 1) / PageSize * PageSize
	}
	d := n.domain
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.shmems[key]; dup {
		return nil, ErrShmExists
	}
	s := &Shmem{
		domain:   d,
		key:      key,
		attrs:    a,
		buf:      make([]byte, alloc),
		attached: make(map[NodeID]struct{}),
	}
	insert(&d.shmems, key, s)
	return s, nil
}

// ShmemCreateMalloc is the paper's Listing 3 helper: create a heap-backed
// segment and attach the calling node in one step, returning the memory.
// It is the allocation path the MCA-backed OpenMP runtime's gomp_malloc
// maps onto.
func (n *Node) ShmemCreateMalloc(key Key, size int) ([]byte, *Shmem, error) {
	s, err := n.ShmemCreate(key, size, &ShmemAttributes{Kind: ShmemMalloc})
	if err != nil {
		return nil, nil, err
	}
	buf, err := s.Attach(n)
	if err != nil {
		return nil, nil, err
	}
	return buf, s, nil
}

// ShmemGet looks up an existing segment by key (mrapi_shmem_get).
func (n *Node) ShmemGet(key Key) (*Shmem, error) {
	if err := n.checkLive(); err != nil {
		return nil, err
	}
	d := n.domain
	d.mu.RLock()
	defer d.mu.RUnlock()
	s, ok := d.shmems[key]
	if !ok {
		return nil, ErrShmInvalid
	}
	return s, nil
}

// Key returns the database key of the segment.
func (s *Shmem) Key() Key { return s.key }

// Size returns the usable size in bytes (after any page rounding).
func (s *Shmem) Size() int { return len(s.buf) }

// Attributes returns a copy of the creation attributes.
func (s *Shmem) Attributes() ShmemAttributes { return s.attrs }

// Attach maps the segment into the node and returns the shared bytes
// (mrapi_shmem_attach). Nodes in a different, non-shared memory domain are
// rejected with ErrShmNodesIncompat.
func (s *Shmem) Attach(n *Node) ([]byte, error) {
	if err := n.checkLive(); err != nil {
		return nil, err
	}
	if s.attrs.MemDomain != 0 && n.attrs.MemDomain != s.attrs.MemDomain {
		return nil, ErrShmNodesIncompat
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.deleted {
		return nil, ErrShmInvalid
	}
	s.attached[n.id] = struct{}{}
	n.shmemAttachs.Add(1)
	return s.buf, nil
}

// Detach unmaps the segment from the node (mrapi_shmem_detach). If the
// segment was marked for deletion and this was the last attachment, the
// storage is reclaimed and the key released.
func (s *Shmem) Detach(n *Node) error {
	if err := n.checkLive(); err != nil {
		return err
	}
	s.mu.Lock()
	if _, ok := s.attached[n.id]; !ok {
		s.mu.Unlock()
		return ErrShmNotAttached
	}
	delete(s.attached, n.id)
	reclaim := s.deleteOnDetach && len(s.attached) == 0
	if reclaim {
		s.deleted = true
	}
	s.mu.Unlock()
	if reclaim {
		s.release()
	}
	return nil
}

// Delete removes the segment (mrapi_shmem_delete). Per the MRAPI rundown
// protocol, a segment with live attachments is only marked; the key and
// storage are released when the last node detaches.
func (s *Shmem) Delete(n *Node) error {
	if err := n.checkLive(); err != nil {
		return err
	}
	s.mu.Lock()
	if s.deleted {
		s.mu.Unlock()
		return ErrShmInvalid
	}
	if len(s.attached) > 0 {
		s.deleteOnDetach = true
		s.mu.Unlock()
		return nil
	}
	s.deleted = true
	s.mu.Unlock()
	s.release()
	return nil
}

// Attached reports how many nodes currently map the segment.
func (s *Shmem) Attached() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.attached)
}

// IsAttached reports whether the given node currently maps the segment.
func (s *Shmem) IsAttached(n *Node) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.attached[n.id]
	return ok
}

func (s *Shmem) release() {
	d := s.domain
	d.mu.Lock()
	delete(d.shmems, s.key)
	d.mu.Unlock()
}
