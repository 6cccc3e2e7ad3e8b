package mrapi

import (
	"sync"
	"sync/atomic"
)

// MutexAttributes configure a mutex at creation (mrapi_mutex_init_attributes).
type MutexAttributes struct {
	// Recursive allows the owning node to re-lock; each lock returns a new
	// LockKey and unlocks must be issued in reverse key order, matching the
	// MRAPI recursive-mutex contract.
	Recursive bool
}

// LockKey is the token mrapi_mutex_lock hands back; it must be presented to
// Unlock. For recursive mutexes the key encodes the recursion depth.
type LockKey uint32

// Mutex is an MRAPI mutex: a domain-wide, key-addressed mutual-exclusion
// primitive with optional recursion and timed acquisition. It is the
// primitive the paper maps gomp_mutex_lock onto (Listing 4).
//
// Ownership lives in one atomic word. An uncontended non-recursive
// Lock is a CAS of owner from nil to the node, and its Unlock a CAS back
// plus a load of waiting; everything else — recursion and lock keys,
// self-deadlock detection, timeouts, parking, delete — runs on the slow
// path under mu. A slow-path locker counts itself in waiting before it
// looks at owner, and a fast unlocker clears owner before it looks at
// waiting, so one of the two always sees the other and no wakeup is
// lost.
type Mutex struct {
	domain *Domain
	key    Key
	attrs  MutexAttributes

	owner   atomic.Pointer[Node] // nil = free, mutexDeleted once deleted
	waiting atomic.Int32         // lockers inside the slow path

	mu      sync.Mutex
	depth   uint32 // recursion depth while held (recursive mutexes only)
	waiters waitQueue
}

// mutexDeleted is the owner word of a deleted mutex: no node can CAS it
// from nil, so a deleted mutex always takes the slow path.
var mutexDeleted = new(Node)

// MutexCreate registers a new mutex under key in the domain's global
// database (mrapi_mutex_create). The creating node must be initialized.
func (n *Node) MutexCreate(key Key, attrs *MutexAttributes) (*Mutex, error) {
	if err := n.checkLive(); err != nil {
		return nil, err
	}
	a := MutexAttributes{}
	if attrs != nil {
		a = *attrs
	}
	d := n.domain
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.mutexes[key]; dup {
		return nil, ErrMutexExists
	}
	m := &Mutex{domain: d, key: key, attrs: a}
	d.mutexes[key] = m
	return m, nil
}

// MutexGet looks up an existing mutex by key (mrapi_mutex_get).
func (n *Node) MutexGet(key Key) (*Mutex, error) {
	if err := n.checkLive(); err != nil {
		return nil, err
	}
	d := n.domain
	d.mu.RLock()
	defer d.mu.RUnlock()
	m, ok := d.mutexes[key]
	if !ok {
		return nil, ErrMutexInvalid
	}
	return m, nil
}

// Key returns the database key the mutex was created under.
func (m *Mutex) Key() Key { return m.key }

// Attributes returns a copy of the creation attributes.
func (m *Mutex) Attributes() MutexAttributes { return m.attrs }

// Lock acquires the mutex on behalf of node, waiting up to timeout
// (mrapi_mutex_lock). On success it returns the LockKey that must be given
// back to Unlock. Re-locking a non-recursive mutex from its owning node
// fails immediately with ErrMutexLocked (self-deadlock detection); on a
// recursive mutex it succeeds and increments the key.
func (m *Mutex) Lock(node *Node, timeout Timeout) (LockKey, error) {
	if node == nil {
		return 0, ErrParameter
	}
	if err := node.checkLive(); err != nil {
		return 0, err
	}
	if !m.attrs.Recursive && m.owner.CompareAndSwap(nil, node) {
		node.locksTaken.Add(1)
		return 0, nil
	}
	return m.lockSlow(node, timeout)
}

func (m *Mutex) lockSlow(node *Node, timeout Timeout) (LockKey, error) {
	m.mu.Lock()
	m.waiting.Add(1)
	defer func() {
		m.waiting.Add(-1)
		m.mu.Unlock()
	}()
	for {
		switch o := m.owner.Load(); o {
		case mutexDeleted:
			return 0, ErrMutexDeleted
		case nil:
			if !m.owner.CompareAndSwap(nil, node) {
				continue // a fast-path locker won the race
			}
			m.depth = 1
			node.locksTaken.Add(1)
			return 0, nil
		case node:
			if !m.attrs.Recursive {
				return 0, ErrMutexLocked
			}
			m.depth++
			node.locksTaken.Add(1)
			return LockKey(m.depth - 1), nil
		}
		if timeout == TimeoutImmediate {
			return 0, ErrTimeout
		}
		if st := m.waiters.wait(&m.mu, timeout); st != Success {
			return 0, st
		}
	}
}

// Unlock releases one level of the mutex (mrapi_mutex_unlock). The lock key
// must be the most recently issued one; recursive unlocks out of order fail
// with ErrMutexLockOrder, unlocking from a non-owner fails with
// ErrMutexKey, and unlocking an unheld mutex fails with ErrMutexNotLocked.
func (m *Mutex) Unlock(node *Node, key LockKey) error {
	if node == nil {
		return ErrParameter
	}
	if err := node.checkLive(); err != nil {
		return err
	}
	if !m.attrs.Recursive && key == 0 && m.owner.CompareAndSwap(node, nil) {
		if m.waiting.Load() > 0 {
			m.mu.Lock()
			m.waiters.signalLocked()
			m.mu.Unlock()
		}
		return nil
	}
	return m.unlockSlow(node, key)
}

func (m *Mutex) unlockSlow(node *Node, key LockKey) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch m.owner.Load() {
	case mutexDeleted:
		return ErrMutexDeleted
	case nil:
		return ErrMutexNotLocked
	case node:
	default:
		return ErrMutexKey
	}
	depth := uint32(1)
	if m.attrs.Recursive {
		depth = m.depth
	}
	if uint32(key) != depth-1 {
		return ErrMutexLockOrder
	}
	if depth > 1 {
		m.depth--
		return nil
	}
	m.owner.Store(nil)
	m.waiters.signalLocked()
	return nil
}

// Held reports whether the mutex is currently locked (diagnostic). A
// deleted mutex is not held.
func (m *Mutex) Held() bool {
	o := m.owner.Load()
	return o != nil && o != mutexDeleted
}

// Delete removes the mutex from the domain database (mrapi_mutex_delete).
// Waiters are woken with ErrMutexDeleted. Deleting a held mutex is allowed
// only for the owner; other nodes get ErrMutexLocked.
func (m *Mutex) Delete(node *Node) error {
	if err := node.checkLive(); err != nil {
		return err
	}
	m.mu.Lock()
	for {
		o := m.owner.Load()
		if o == mutexDeleted {
			m.mu.Unlock()
			return ErrMutexInvalid
		}
		if o != nil && o != node {
			m.mu.Unlock()
			return ErrMutexLocked
		}
		// A fast-path locker may take a free mutex under us; then the
		// CAS fails and the loop re-reads the new owner.
		if m.owner.CompareAndSwap(o, mutexDeleted) {
			break
		}
	}
	m.waiters.broadcastLocked()
	m.mu.Unlock()

	d := m.domain
	d.mu.Lock()
	delete(d.mutexes, m.key)
	d.mu.Unlock()
	return nil
}
