package mtapi

import (
	"sync"
	"time"
)

// Group collects tasks for bulk synchronization (mtapi_group_create /
// mtapi_group_wait_all / mtapi_group_wait_any).
type Group struct {
	node *Node

	mu      sync.Mutex
	pending int
	tasks   []*Task
	anyCh   chan *Task
}

// CreateGroup creates an empty task group.
func (n *Node) CreateGroup() *Group {
	return &Group{node: n, anyCh: make(chan *Task, 64)}
}

// Start launches a task for job inside the group.
func (g *Group) Start(job JobID, args any, attrs *TaskAttributes) (*Task, error) {
	prio := 0
	if attrs != nil {
		prio = attrs.Priority
	}
	if prio < 0 || prio > MaxPriority {
		return nil, ErrPriority
	}
	a, err := g.node.pickAction(job)
	if err != nil {
		return nil, err
	}
	t := newTask(a, args, prio)
	t.group = g
	g.mu.Lock()
	g.pending++
	g.tasks = append(g.tasks, t)
	g.mu.Unlock()
	if err := g.node.enqueue(t); err != nil {
		g.mu.Lock()
		g.pending--
		g.mu.Unlock()
		return nil, err
	}
	return t, nil
}

// memberSettled counts one member out; Task.settle calls it just before
// the member's done channel closes.
func (g *Group) memberSettled() {
	g.mu.Lock()
	g.pending--
	g.mu.Unlock()
}

// onTaskDone is called by the scheduler when a group member finishes or is
// canceled, after the member settled: it feeds WaitAny.
func (g *Group) onTaskDone(t *Task) {
	select {
	case g.anyCh <- t:
	default:
	}
}

// Pending reports unfinished member tasks.
func (g *Group) Pending() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.pending
}

// WaitAll blocks until every member task has finished (or canceled) and
// returns the first member error, if any. A negative timeout
// (TimeoutInfinite) waits forever; zero polls once, returning ErrTimeout
// unless every member is already done; positive bounds the wait.
func (g *Group) WaitAll(timeout time.Duration) error {
	var deadline <-chan time.Time
	if timeout > 0 {
		tm := time.NewTimer(timeout)
		defer tm.Stop()
		deadline = tm.C
	}
	g.mu.Lock()
	tasks := append([]*Task(nil), g.tasks...)
	g.mu.Unlock()
	for _, t := range tasks {
		select {
		case <-t.done:
		default:
			switch {
			case timeout == 0:
				return ErrTimeout
			case timeout < 0:
				<-t.done
			default:
				select {
				case <-t.done:
				case <-deadline:
					return ErrTimeout
				}
			}
		}
	}
	var firstErr error
	for _, t := range tasks {
		t.mu.Lock()
		if t.err != nil && firstErr == nil {
			firstErr = t.err
		}
		t.mu.Unlock()
	}
	return firstErr
}

// WaitAny blocks until some member task finishes and returns it
// (mtapi_group_wait_any). A negative timeout (TimeoutInfinite) waits
// forever; zero polls once, returning ErrTimeout if no completion is
// ready; positive bounds the wait.
func (g *Group) WaitAny(timeout time.Duration) (*Task, error) {
	g.mu.Lock()
	if g.pending == 0 && len(g.anyCh) == 0 {
		g.mu.Unlock()
		return nil, ErrGroupCompleted
	}
	g.mu.Unlock()
	switch {
	case timeout < 0:
		return <-g.anyCh, nil
	case timeout == 0:
		select {
		case t := <-g.anyCh:
			return t, nil
		default:
			return nil, ErrTimeout
		}
	}
	tm := time.NewTimer(timeout)
	defer tm.Stop()
	select {
	case t := <-g.anyCh:
		return t, nil
	case <-tm.C:
		return nil, ErrTimeout
	}
}

// Queue is an MTAPI queue: an ordered execution context bound to a job —
// tasks enqueued on one queue run strictly one at a time, in order
// (mtapi_queue_create), while different queues run concurrently.
type Queue struct {
	node *Node
	job  JobID
	prio int

	mu      sync.Mutex
	backlog []*Task
	busy    bool
	deleted bool
}

// QueueAttributes configure a queue.
type QueueAttributes struct {
	// Priority applies to every task of the queue.
	Priority int
}

// CreateQueue creates an ordered queue bound to job.
func (n *Node) CreateQueue(job JobID, attrs *QueueAttributes) (*Queue, error) {
	prio := 0
	if attrs != nil {
		prio = attrs.Priority
	}
	if prio < 0 || prio > MaxPriority {
		return nil, ErrPriority
	}
	n.mu.Lock()
	down := n.down
	n.mu.Unlock()
	if down {
		return nil, ErrNodeDown
	}
	return &Queue{node: n, job: job, prio: prio}, nil
}

// Enqueue submits a task to the queue (mtapi_task_enqueue); it runs after
// every previously enqueued task of this queue has completed.
func (q *Queue) Enqueue(args any) (*Task, error) {
	a, err := q.node.pickAction(q.job)
	if err != nil {
		return nil, err
	}
	t := newTask(a, args, q.prio)
	t.queue = q

	q.mu.Lock()
	if q.deleted {
		q.mu.Unlock()
		return nil, ErrQueueDeleted
	}
	if q.busy {
		q.backlog = append(q.backlog, t)
		q.mu.Unlock()
		return t, nil
	}
	q.busy = true
	q.mu.Unlock()
	if err := q.node.enqueue(t); err != nil {
		q.mu.Lock()
		q.busy = false
		q.mu.Unlock()
		return nil, err
	}
	return t, nil
}

// onTaskDone releases the queue's serialization slot and dispatches the
// next backlog task.
func (q *Queue) onTaskDone() {
	q.mu.Lock()
	var next *Task
	if len(q.backlog) > 0 {
		next = q.backlog[0]
		q.backlog = q.backlog[1:]
	} else {
		q.busy = false
	}
	q.mu.Unlock()
	if next != nil {
		if err := q.node.enqueue(next); err != nil {
			next.finish(nil, err, TaskCanceled)
			q.onTaskDone()
		}
	}
}

// Delete marks the queue deleted; backlogged tasks are canceled
// (mtapi_queue_delete).
func (q *Queue) Delete() {
	q.mu.Lock()
	q.deleted = true
	backlog := q.backlog
	q.backlog = nil
	q.mu.Unlock()
	for _, t := range backlog {
		t.finish(nil, ErrQueueDeleted, TaskCanceled)
	}
}
