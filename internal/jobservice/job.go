package jobservice

import (
	"sync"
	"time"
)

// Job kinds: a fabric task (irregular job via the MTAPI task fabric) or
// an offloaded parallel-for region (chunked across domains).
const (
	KindTask        = "task"
	KindParallelFor = "parallel_for"
)

// Job statuses, in lifecycle order.
const (
	StatusQueued    = "queued"    // admitted, waiting for a dispatch slot
	StatusRunning   = "running"   // handed to the fabric
	StatusSucceeded = "succeeded" // settled with a result
	StatusFailed    = "failed"    // settled with an error
	StatusCanceled  = "canceled"  // canceled before dispatch
)

// jobRec is the server's record of one submitted job.
type jobRec struct {
	id     string
	tenant *tenantState
	kind   string
	name   string
	arg    []byte
	n      int // parallel_for iteration count
	group  *groupRec

	events *eventLog     // per-job progress log (see events.go)
	done   chan struct{} // closed exactly once when the job settles

	// replayed marks a job re-enqueued by durable-store recovery after a
	// restart: it was accepted (or mid-flight) in a previous process
	// life and is being re-executed deterministically. Set before the
	// dispatcher starts, read-only after.
	replayed bool

	mu        sync.Mutex
	status    string
	result    []byte
	errMsg    string
	recovered bool
	submitted time.Time
	started   time.Time
	finished  time.Time
}

// claim transitions queued -> running; the dispatcher calls it when
// popping the job so a concurrently canceled job is skipped instead of
// dispatched.
func (j *jobRec) claim() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusQueued {
		return false
	}
	j.status = StatusRunning
	j.started = time.Now()
	return true
}

// cancelQueued transitions queued -> canceled and settles the job.
func (j *jobRec) cancelQueued() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusQueued {
		return false
	}
	j.status = StatusCanceled
	j.finished = time.Now()
	close(j.done)
	j.events.add(JobEvent{Type: EventSettled, Chunk: -1, Status: StatusCanceled})
	return true
}

// settle records the terminal result and wakes every waiter.
func (j *jobRec) settle(result []byte, errMsg string, recovered bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status == StatusSucceeded || j.status == StatusFailed || j.status == StatusCanceled {
		return
	}
	if errMsg == "" {
		j.status = StatusSucceeded
	} else {
		j.status = StatusFailed
	}
	j.result = result
	j.errMsg = errMsg
	j.recovered = recovered
	j.finished = time.Now()
	close(j.done)
	j.events.add(JobEvent{Type: EventSettled, Chunk: -1, Status: j.status})
}

// JobView is the wire representation of a job; result bytes travel
// base64-encoded per encoding/json's []byte convention.
type JobView struct {
	ID          string     `json:"id"`
	Tenant      string     `json:"tenant"`
	Kind        string     `json:"kind"`
	Name        string     `json:"name"`
	Status      string     `json:"status"`
	Group       string     `json:"group,omitempty"`
	Result      []byte     `json:"result,omitempty"`
	Error       string     `json:"error,omitempty"`
	Recovered   bool       `json:"recovered,omitempty"`
	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`
}

func (j *jobRec) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:          j.id,
		Tenant:      j.tenant.Name,
		Kind:        j.kind,
		Name:        j.name,
		Status:      j.status,
		Result:      j.result,
		Error:       j.errMsg,
		Recovered:   j.recovered,
		SubmittedAt: j.submitted,
	}
	if j.group != nil {
		v.Group = j.group.id
	}
	if !j.started.IsZero() {
		t := j.started
		v.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.FinishedAt = &t
	}
	return v
}

// groupRec collects related jobs of one tenant for collective streaming:
// every settled member is delivered on the stream exactly once.
type groupRec struct {
	id     string
	tenant *tenantState

	mu       sync.Mutex
	members  int
	pending  int
	ready    []*jobRec       // settled, not yet streamed
	progress []groupProgress // member progress lines, not yet streamed (bounded)
	notify   chan struct{}   // cap 1: completion signal
	canceled bool
}

func (g *groupRec) addMember() {
	g.mu.Lock()
	g.members++
	g.pending++
	g.mu.Unlock()
}

// deliver hands a settled member to the stream queue.
func (g *groupRec) deliver(j *jobRec) {
	g.mu.Lock()
	g.pending--
	g.ready = append(g.ready, j)
	g.mu.Unlock()
	select {
	case g.notify <- struct{}{}:
	default:
	}
}

// GroupView is the wire representation of a group.
type GroupView struct {
	ID       string `json:"id"`
	Tenant   string `json:"tenant"`
	Members  int    `json:"members"`
	Pending  int    `json:"pending"`
	Canceled bool   `json:"canceled,omitempty"`
}

func (g *groupRec) view() GroupView {
	g.mu.Lock()
	defer g.mu.Unlock()
	return GroupView{
		ID:       g.id,
		Tenant:   g.tenant.Name,
		Members:  g.members,
		Pending:  g.pending,
		Canceled: g.canceled,
	}
}
