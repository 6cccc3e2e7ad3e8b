package core

import "sync"

// dequeCapacity bounds each worker's task deque. A full deque makes Task
// execute the task undeferred on the producing thread — the same pressure
// valve libGOMP applies (serializing tasks as if under an if(0) clause)
// so task storms degrade to recursion instead of unbounded queue growth.
const dequeCapacity = 256

// taskDeque is one worker's bounded double-ended task queue: the owning
// thread pushes and pops at the tail (LIFO, cache-warm child first), idle
// threads steal from the head (FIFO, oldest first — the biggest remaining
// subtree under recursive decomposition). Each deque carries its own lock,
// so the common push/pop path contends with nothing but a thief that
// happens to target this exact worker; the team-wide serialization of the
// old single shared queue is gone.
//
// A mutex — not a lock-free Chase-Lev ring — guards the deque on purpose:
// task bodies may call Context methods of their *creating* thread (the
// recursive-decomposition idiom in task_test.go), so pushes are not
// strictly single-owner and the lock-free owner/thief split would be
// unsound. The lock is per-worker, which is where the scalability win
// lives; see DESIGN.md §"Task scheduler".
type taskDeque struct {
	mu   sync.Mutex
	buf  []task // held by value: a queued task allocates nothing
	cap  int    // hard bound; buf grows lazily toward it
	head int    // oldest element; next steal target
	tail int    // next push slot
	n    int    // live elements

	// pad spaces adjacent deques of a team's slab onto distinct cache
	// lines so one worker's push/pop does not false-share with its
	// neighbour's.
	_ [64]byte
}

// dequeInitialSize keeps team construction cheap: a region's deques start
// with no ring at all; the first push allocates this much, and only deques
// that see deep task nests grow toward dequeCapacity. 32 slots (512 bytes)
// absorbs typical per-thread task batches in one allocation.
const dequeInitialSize = 32

// newTaskDequeSlab allocates n deques in one backing array — one
// allocation per team, not 2n — each bounded by capacity.
func newTaskDequeSlab(n, capacity int) []*taskDeque {
	if capacity < 1 {
		capacity = 1
	}
	slab := make([]taskDeque, n)
	ds := make([]*taskDeque, n)
	for i := range slab {
		slab[i].cap = capacity
		ds[i] = &slab[i]
	}
	return ds
}

func newTaskDeque(capacity int) *taskDeque {
	return newTaskDequeSlab(1, capacity)[0]
}

// pushTail appends tk at the tail; it reports false when the deque is full
// and the caller must run the task undeferred.
func (d *taskDeque) pushTail(tk task) bool {
	d.mu.Lock()
	if d.n == len(d.buf) {
		if d.n == d.cap {
			d.mu.Unlock()
			return false
		}
		d.grow()
	}
	d.buf[d.tail] = tk
	d.tail = (d.tail + 1) % len(d.buf)
	d.n++
	d.mu.Unlock()
	return true
}

// popTail removes and returns the newest task; ok is false when empty.
func (d *taskDeque) popTail() (tk task, ok bool) {
	d.mu.Lock()
	if d.n == 0 {
		d.mu.Unlock()
		return task{}, false
	}
	d.tail = (d.tail - 1 + len(d.buf)) % len(d.buf)
	tk = d.buf[d.tail]
	d.buf[d.tail] = task{} // drop the closure so the ring does not retain it
	d.n--
	d.mu.Unlock()
	return tk, true
}

// stealHead removes and returns the oldest task; ok is false when empty.
func (d *taskDeque) stealHead() (tk task, ok bool) {
	d.mu.Lock()
	if d.n == 0 {
		d.mu.Unlock()
		return task{}, false
	}
	tk = d.buf[d.head]
	d.buf[d.head] = task{}
	d.head = (d.head + 1) % len(d.buf)
	d.n--
	d.mu.Unlock()
	return tk, true
}

// grow allocates the initial ring or doubles it (bounded by cap),
// unwrapping the live window into the front of the new buffer. Called with
// d.mu held and d.n == len(d.buf).
func (d *taskDeque) grow() {
	next := 2 * len(d.buf)
	if next == 0 {
		next = dequeInitialSize
	}
	if next > d.cap {
		next = d.cap
	}
	nb := make([]task, next)
	for i := 0; i < d.n; i++ {
		nb[i] = d.buf[(d.head+i)%len(d.buf)]
	}
	d.buf = nb
	d.head = 0
	d.tail = d.n
}

// size reports the current number of queued tasks.
func (d *taskDeque) size() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.n
}
