package mrapi

import "sync"

// RWLockMode selects shared (reader) or exclusive (writer) acquisition.
type RWLockMode int

const (
	// Reader acquires the lock shared: any number of concurrent readers.
	Reader RWLockMode = iota
	// Writer acquires the lock exclusive.
	Writer
)

func (m RWLockMode) String() string {
	if m == Reader {
		return "MRAPI_RWL_READER"
	}
	return "MRAPI_RWL_WRITER"
}

// RWLock is an MRAPI reader/writer lock: key-addressed, domain-wide, timed,
// writer-preferring (a queued writer blocks new readers, preventing writer
// starvation — the policy of the C reference implementation).
type RWLock struct {
	domain *Domain
	key    Key

	mu             sync.Mutex
	readers        int
	writer         *Node
	writersWaiting int
	deleted        bool
	readQ, writeQ  waitQueue
}

// RWLockCreate registers a reader/writer lock under key
// (mrapi_rwl_create).
func (n *Node) RWLockCreate(key Key) (*RWLock, error) {
	if err := n.checkLive(); err != nil {
		return nil, err
	}
	d := n.domain
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.rwlocks[key]; dup {
		return nil, ErrRwlExists
	}
	l := &RWLock{domain: d, key: key}
	insert(&d.rwlocks, key, l)
	return l, nil
}

// RWLockGet looks up an existing reader/writer lock by key (mrapi_rwl_get).
func (n *Node) RWLockGet(key Key) (*RWLock, error) {
	if err := n.checkLive(); err != nil {
		return nil, err
	}
	d := n.domain
	d.mu.RLock()
	defer d.mu.RUnlock()
	l, ok := d.rwlocks[key]
	if !ok {
		return nil, ErrRwlInvalid
	}
	return l, nil
}

// Key returns the database key of the lock.
func (l *RWLock) Key() Key { return l.key }

// Lock acquires the lock in the given mode, waiting up to timeout
// (mrapi_rwl_lock). Re-acquiring exclusively while this node already holds
// it exclusively fails with ErrRwlLocked.
func (l *RWLock) Lock(node *Node, mode RWLockMode, timeout Timeout) error {
	if node == nil {
		return ErrParameter
	}
	if err := node.checkLive(); err != nil {
		return err
	}
	l.mu.Lock()
	if mode == Writer {
		l.writersWaiting++
		for {
			if l.deleted {
				l.writersWaiting--
				l.mu.Unlock()
				return ErrRwlDeleted
			}
			if l.writer == node {
				l.writersWaiting--
				l.mu.Unlock()
				return ErrRwlLocked
			}
			if l.writer == nil && l.readers == 0 {
				l.writersWaiting--
				l.writer = node
				l.mu.Unlock()
				node.locksTaken.Add(1)
				return nil
			}
			if timeout == TimeoutImmediate {
				l.writersWaiting--
				l.mu.Unlock()
				return ErrTimeout
			}
			if st := l.writeQ.wait(&l.mu, timeout); st != Success {
				l.writersWaiting--
				l.mu.Unlock()
				return st
			}
		}
	}
	// Reader path: blocked while a writer holds the lock or is queued.
	for {
		if l.deleted {
			l.mu.Unlock()
			return ErrRwlDeleted
		}
		if l.writer == nil && l.writersWaiting == 0 {
			l.readers++
			l.mu.Unlock()
			node.locksTaken.Add(1)
			return nil
		}
		if timeout == TimeoutImmediate {
			l.mu.Unlock()
			return ErrTimeout
		}
		if st := l.readQ.wait(&l.mu, timeout); st != Success {
			l.mu.Unlock()
			return st
		}
	}
}

// Unlock releases the lock in the given mode (mrapi_rwl_unlock).
func (l *RWLock) Unlock(node *Node, mode RWLockMode) error {
	if node == nil {
		return ErrParameter
	}
	if err := node.checkLive(); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.deleted {
		return ErrRwlDeleted
	}
	if mode == Writer {
		if l.writer != node {
			return ErrRwlNotLocked
		}
		l.writer = nil
	} else {
		if l.readers == 0 {
			return ErrRwlNotLocked
		}
		l.readers--
	}
	if l.writer == nil && l.readers == 0 && l.writersWaiting > 0 {
		l.writeQ.signalLocked()
	} else if l.writer == nil && l.writersWaiting == 0 {
		l.readQ.broadcastLocked()
	}
	return nil
}

// Readers reports the number of current shared holders (diagnostic).
func (l *RWLock) Readers() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.readers
}

// Delete removes the lock from the domain database, waking waiters with
// ErrRwlDeleted (mrapi_rwl_delete).
func (l *RWLock) Delete(node *Node) error {
	if err := node.checkLive(); err != nil {
		return err
	}
	l.mu.Lock()
	if l.deleted {
		l.mu.Unlock()
		return ErrRwlInvalid
	}
	l.deleted = true
	l.readQ.broadcastLocked()
	l.writeQ.broadcastLocked()
	l.mu.Unlock()

	d := l.domain
	d.mu.Lock()
	delete(d.rwlocks, l.key)
	d.mu.Unlock()
	return nil
}
