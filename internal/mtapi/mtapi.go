// Package mtapi implements the Multicore Association Task Management API
// (MTAPI) semantics in pure Go: jobs implemented by actions, tasks started
// against jobs and scheduled onto a bounded worker pool with priorities,
// task groups for bulk synchronization, and ordered queues that serialize
// their tasks — the full task life-cycle surface the paper names as
// future work (§7; Siemens' EMBB is the reference implementation it
// cites).
package mtapi

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Errors returned by the package.
var (
	ErrNodeDown       = errors.New("mtapi: node is shut down")
	ErrJobInvalid     = errors.New("mtapi: no action registered for job")
	ErrActionExists   = errors.New("mtapi: action already registered for job on this node")
	ErrTimeout        = errors.New("mtapi: timeout")
	ErrCanceled       = errors.New("mtapi: task canceled")
	ErrPriority       = errors.New("mtapi: priority out of range")
	ErrQueueDeleted   = errors.New("mtapi: queue deleted")
	ErrGroupCompleted = errors.New("mtapi: group already waited")
)

// JobID identifies a job — the abstract "what" tasks execute.
type JobID uint32

// TimeoutInfinite makes Task.Wait, Group.WaitAll and Group.WaitAny block
// until completion. The timeout contract, shared by all three:
//
//	timeout < 0   wait forever (use TimeoutInfinite)
//	timeout == 0  poll once: return immediately, ErrTimeout if not done
//	timeout > 0   wait at most that long
//
// Earlier versions treated 0 as "forever"; a zero timeout now matches
// MCAPI's TimeoutImmediate semantics so callers can poll without
// blocking.
const TimeoutInfinite time.Duration = -1

// ActionFunc is a job implementation: args in, result out.
type ActionFunc func(args any) (any, error)

// MaxPriority is the lowest priority level; 0 is highest.
const MaxPriority = 3

// TaskState describes a task's lifecycle phase.
type TaskState int32

// Task lifecycle states.
const (
	TaskQueued TaskState = iota
	TaskRunning
	TaskCompleted
	TaskCanceled
)

func (s TaskState) String() string {
	switch s {
	case TaskQueued:
		return "queued"
	case TaskRunning:
		return "running"
	case TaskCompleted:
		return "completed"
	default:
		return "canceled"
	}
}

// Node is an MTAPI node: the action registry plus the scheduler (a bounded
// worker pool with priority queues).
type Node struct {
	domain, id uint32

	mu      sync.Mutex
	cond    *sync.Cond
	jobs    map[JobID][]*Action
	rr      map[JobID]int // round-robin cursor over a job's actions
	ready   [MaxPriority + 1][]*Task
	down    bool
	workers int
	wg      sync.WaitGroup

	executed uint64
}

// NodeAttributes configure a node.
type NodeAttributes struct {
	// Workers is the scheduler pool size; <= 0 means 4.
	Workers int
}

// NewNode initializes an MTAPI node and starts its scheduler
// (mtapi_initialize).
func NewNode(domain, id uint32, attrs *NodeAttributes) *Node {
	workers := 4
	if attrs != nil && attrs.Workers > 0 {
		workers = attrs.Workers
	}
	n := &Node{
		domain:  domain,
		id:      id,
		jobs:    make(map[JobID][]*Action),
		rr:      make(map[JobID]int),
		workers: workers,
	}
	n.cond = sync.NewCond(&n.mu)
	for w := 0; w < workers; w++ {
		n.wg.Add(1)
		go n.worker()
	}
	return n
}

// Shutdown stops the scheduler after canceling queued tasks
// (mtapi_finalize). Running tasks complete.
func (n *Node) Shutdown() {
	n.mu.Lock()
	if n.down {
		n.mu.Unlock()
		return
	}
	n.down = true
	for p := range n.ready {
		for _, t := range n.ready[p] {
			t.finish(nil, ErrCanceled, TaskCanceled)
		}
		n.ready[p] = nil
	}
	n.cond.Broadcast()
	n.mu.Unlock()
	n.wg.Wait()
}

// Executed reports how many tasks the node has run to completion.
func (n *Node) Executed() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.executed
}

func (n *Node) String() string { return fmt.Sprintf("mtapi.Node(d%d,n%d)", n.domain, n.id) }

// worker is one scheduler thread: pop the highest-priority ready task and
// run it.
func (n *Node) worker() {
	defer n.wg.Done()
	for {
		n.mu.Lock()
		var t *Task
		for {
			if n.down {
				n.mu.Unlock()
				return
			}
			for p := 0; p <= MaxPriority; p++ {
				if q := n.ready[p]; len(q) > 0 {
					// Clear the slot: the backing array outlives the pop, and
					// must not keep a finished task's args and result alive.
					t, q[0] = q[0], nil
					n.ready[p] = q[1:]
					break
				}
			}
			if t != nil {
				break
			}
			n.cond.Wait()
		}
		n.mu.Unlock()
		n.runTask(t)
	}
}

// runTask executes one task and, for queue tasks, schedules the queue's
// successor.
func (n *Node) runTask(t *Task) {
	if !t.toRunning() {
		return // canceled while queued
	}
	result, err := t.action.fn(t.args)
	t.finish(result, err, TaskCompleted)
	n.mu.Lock()
	n.executed++
	n.mu.Unlock()
	if t.queue != nil {
		t.queue.onTaskDone()
	}
	if t.group != nil {
		t.group.onTaskDone(t)
	}
}

// enqueue admits a task to the ready queues.
func (n *Node) enqueue(t *Task) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down {
		return ErrNodeDown
	}
	n.ready[t.priority] = append(n.ready[t.priority], t)
	n.cond.Signal()
	return nil
}

// Action is one registered implementation of a job on a node
// (mtapi_action_create).
type Action struct {
	node *Node
	job  JobID
	fn   ActionFunc
	name string
}

// CreateAction registers fn as an implementation of job
// (mtapi_action_create). Multiple actions may implement one job; Start
// dispatches round-robin across them (MTAPI's local load balancing).
func (n *Node) CreateAction(job JobID, name string, fn ActionFunc) (*Action, error) {
	if fn == nil {
		return nil, errors.New("mtapi: nil action function")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down {
		return nil, ErrNodeDown
	}
	for _, a := range n.jobs[job] {
		if a.name == name {
			return nil, ErrActionExists
		}
	}
	a := &Action{node: n, job: job, fn: fn, name: name}
	n.jobs[job] = append(n.jobs[job], a)
	return a, nil
}

// Delete deregisters the action (mtapi_action_delete). Tasks already
// started keep their binding.
func (a *Action) Delete() {
	n := a.node
	n.mu.Lock()
	defer n.mu.Unlock()
	actions := n.jobs[a.job]
	for i, x := range actions {
		if x == a {
			n.jobs[a.job] = append(actions[:i], actions[i+1:]...)
			break
		}
	}
	if len(n.jobs[a.job]) == 0 {
		delete(n.jobs, a.job)
	}
}

// pickAction selects an implementation for a job, round-robin.
func (n *Node) pickAction(job JobID) (*Action, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	actions := n.jobs[job]
	if len(actions) == 0 {
		return nil, ErrJobInvalid
	}
	i := n.rr[job] % len(actions)
	n.rr[job]++
	return actions[i], nil
}

// TaskAttributes configure a task start.
type TaskAttributes struct {
	// Priority is 0 (highest) .. MaxPriority.
	Priority int
}

// Task is one job execution instance (mtapi_task_start handle).
type Task struct {
	action   *Action
	args     any
	priority int
	queue    *Queue
	group    *Group

	mu     sync.Mutex
	state  TaskState
	result any
	err    error
	done   chan struct{}
}

func newTask(a *Action, args any, priority int) *Task {
	return &Task{action: a, args: args, priority: priority, done: make(chan struct{})}
}

// toRunning transitions queued -> running; false if canceled.
func (t *Task) toRunning() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state != TaskQueued {
		return false
	}
	t.state = TaskRunning
	return true
}

func (t *Task) finish(result any, err error, state TaskState) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state == TaskCompleted || t.state == TaskCanceled {
		return
	}
	t.state = state
	t.result = result
	t.err = err
	t.settle()
}

// settle publishes the terminal state: the group's pending count drops
// before done closes, so a WaitAll that has seen every member's done
// also sees Pending() == 0. Called with t.mu held.
func (t *Task) settle() {
	if t.group != nil {
		t.group.memberSettled()
	}
	close(t.done)
}

// State reports the task's lifecycle phase.
func (t *Task) State() TaskState {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state
}

// Cancel aborts the task if it has not started running
// (mtapi_task_cancel).
func (t *Task) Cancel() error {
	t.mu.Lock()
	if t.state != TaskQueued {
		t.mu.Unlock()
		return ErrCanceled
	}
	t.state = TaskCanceled
	t.err = ErrCanceled
	t.settle()
	g := t.group
	t.mu.Unlock()
	if g != nil {
		g.onTaskDone(t)
	}
	return nil
}

// Wait blocks up to timeout for completion and returns the action's
// result (mtapi_task_wait). A negative timeout (TimeoutInfinite) waits
// forever; zero polls once, returning ErrTimeout if the task has not
// finished; positive bounds the wait.
func (t *Task) Wait(timeout time.Duration) (any, error) {
	switch {
	case timeout < 0:
		<-t.done
	case timeout == 0:
		select {
		case <-t.done:
		default:
			return nil, ErrTimeout
		}
	default:
		tm := time.NewTimer(timeout)
		defer tm.Stop()
		select {
		case <-t.done:
		case <-tm.C:
			return nil, ErrTimeout
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.result, t.err
}

// Start launches a task for the job (mtapi_task_start). attrs may be nil.
func (n *Node) Start(job JobID, args any, attrs *TaskAttributes) (*Task, error) {
	prio := 0
	if attrs != nil {
		prio = attrs.Priority
	}
	if prio < 0 || prio > MaxPriority {
		return nil, ErrPriority
	}
	a, err := n.pickAction(job)
	if err != nil {
		return nil, err
	}
	t := newTask(a, args, prio)
	if err := n.enqueue(t); err != nil {
		return nil, err
	}
	return t, nil
}
