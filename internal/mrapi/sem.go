package mrapi

import "sync"

// SemAttributes configure a semaphore at creation.
type SemAttributes struct {
	// Max caps the count; 0 means "no explicit cap" and is normalized to
	// MaxSemValue.
	Max int
}

// MaxSemValue is the default maximum semaphore count, mirroring the C
// implementation's MRAPI_MAX_SEM_VALUE bound.
const MaxSemValue = 1 << 30

// Semaphore is an MRAPI counting semaphore: key-addressed, domain-wide,
// with timed acquisition.
type Semaphore struct {
	domain *Domain
	key    Key
	max    int

	mu      sync.Mutex
	count   int
	deleted bool
	waiters waitQueue
}

// SemCreate registers a counting semaphore under key with the given initial
// count (mrapi_sem_create). The count must satisfy 0 <= initial <= max.
func (n *Node) SemCreate(key Key, initial int, attrs *SemAttributes) (*Semaphore, error) {
	if err := n.checkLive(); err != nil {
		return nil, err
	}
	max := MaxSemValue
	if attrs != nil && attrs.Max > 0 {
		max = attrs.Max
	}
	if initial < 0 || initial > max {
		return nil, ErrSemValue
	}
	d := n.domain
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.sems[key]; dup {
		return nil, ErrSemExists
	}
	s := &Semaphore{domain: d, key: key, max: max, count: initial}
	insert(&d.sems, key, s)
	return s, nil
}

// SemGet looks up an existing semaphore by key (mrapi_sem_get).
func (n *Node) SemGet(key Key) (*Semaphore, error) {
	if err := n.checkLive(); err != nil {
		return nil, err
	}
	d := n.domain
	d.mu.RLock()
	defer d.mu.RUnlock()
	s, ok := d.sems[key]
	if !ok {
		return nil, ErrSemInvalid
	}
	return s, nil
}

// Key returns the database key of the semaphore.
func (s *Semaphore) Key() Key { return s.key }

// Lock decrements the semaphore, waiting up to timeout when the count is
// zero (mrapi_sem_lock).
func (s *Semaphore) Lock(node *Node, timeout Timeout) error {
	if node == nil {
		return ErrParameter
	}
	if err := node.checkLive(); err != nil {
		return err
	}
	s.mu.Lock()
	for {
		if s.deleted {
			s.mu.Unlock()
			return ErrSemDeleted
		}
		if s.count > 0 {
			s.count--
			s.mu.Unlock()
			node.locksTaken.Add(1)
			return nil
		}
		if timeout == TimeoutImmediate {
			s.mu.Unlock()
			return ErrTimeout
		}
		if st := s.waiters.wait(&s.mu, timeout); st != Success {
			s.mu.Unlock()
			return st
		}
	}
}

// Unlock increments the semaphore (mrapi_sem_unlock / post). Posting past
// the maximum fails with ErrSemNotLocked.
func (s *Semaphore) Unlock(node *Node) error {
	if node == nil {
		return ErrParameter
	}
	if err := node.checkLive(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.deleted {
		return ErrSemDeleted
	}
	if s.count >= s.max {
		return ErrSemNotLocked
	}
	s.count++
	s.waiters.signalLocked()
	return nil
}

// Count reports the current count (diagnostic).
func (s *Semaphore) Count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.count
}

// Delete removes the semaphore from the domain database, waking waiters
// with ErrSemDeleted (mrapi_sem_delete).
func (s *Semaphore) Delete(node *Node) error {
	if err := node.checkLive(); err != nil {
		return err
	}
	s.mu.Lock()
	if s.deleted {
		s.mu.Unlock()
		return ErrSemInvalid
	}
	s.deleted = true
	s.waiters.broadcastLocked()
	s.mu.Unlock()

	d := s.domain
	d.mu.Lock()
	delete(d.sems, s.key)
	d.mu.Unlock()
	return nil
}
