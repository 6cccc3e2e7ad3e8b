package jobservice

import (
	"sync"
	"time"

	"openmpmca/internal/durable"
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

// jobRec is the server's record of one queued or running job. It
// leaves Server.jobs when the job settles, for its settledJob.
type jobRec struct {
	// st holds the job's view: its ID, kind, name, arg, n and group are
	// set before the job is queued and read-only after; its status,
	// result, error, recovered flag and instants change under mu.
	st     durable.JobState
	tenant *tenantState
	group  *groupRec

	events *eventLog     // per-job progress log (see events.go)
	done   chan struct{} // closed exactly once when the job settles

	// replayed marks a job re-enqueued by durable-store recovery after a
	// restart: it was accepted (or mid-flight) in a previous process
	// life and is being re-executed deterministically. Set before any
	// job is launched, read-only after.
	replayed bool

	// accepted is the accepted event's instant (unix ns), kept because
	// a long region's log can drop that event. Set before the job is
	// queued, read-only after.
	accepted int64

	mu sync.Mutex
}

// lifecycleEvents is the length of a task job's event log: accepted,
// dispatched, task_sent, task_done and settled.
const lifecycleEvents = 5

// liveJob is a job's record, its event log and room for the log's
// lifecycle events, in one allocation.
type liveJob struct {
	rec jobRec
	log eventLog
	evs [lifecycleEvents]event
}

// newJob builds the queued record of the job st describes, for tenant
// t in group g (nil for none). Accepts and replay both build records
// here.
func newJob(st durable.JobState, t *tenantState, g *groupRec) *jobRec {
	l := new(liveJob)
	l.log.events = l.evs[:0]
	j := &l.rec
	j.st, j.tenant, j.group = st, t, g
	j.st.Status = StatusQueued
	j.events = &l.log
	j.done = make(chan struct{})
	return j
}

// state reads the job's view.
func (j *jobRec) state() durable.JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.st
}

// claim transitions queued -> running; dispatch calls it when it takes
// the job so a concurrently canceled job is skipped instead of
// dispatched.
func (j *jobRec) claim() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.st.Status != StatusQueued {
		return false
	}
	j.st.Status = StatusRunning
	j.st.StartedNs = time.Now().UnixNano()
	return true
}

// cancelQueued transitions queued -> canceled and settles the job.
func (j *jobRec) cancelQueued() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.st.Status != StatusQueued {
		return false
	}
	j.st.Status = StatusCanceled
	j.st.FinishedNs = time.Now().UnixNano()
	close(j.done)
	j.events.add(event{typ: EventSettled, chunk: -1, domain: noDomain, status: StatusCanceled})
	return true
}

// settle records the terminal result and wakes every waiter.
func (j *jobRec) settle(result []byte, errMsg string, recovered bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.st.Settled() {
		return
	}
	j.st.Status, j.st.Result, j.st.Error, j.st.Recovered = StatusSucceeded, result, errMsg, recovered
	if errMsg != "" {
		j.st.Status = StatusFailed
	}
	j.st.FinishedNs = time.Now().UnixNano()
	close(j.done)
	j.events.add(event{at: j.st.FinishedNs, typ: EventSettled, chunk: -1, domain: noDomain, status: j.st.Status})
}

// settledJob is a settled job's one form: the view's fields and result
// bytes as a JobState and, for a job settled live, the sealedJob that
// holds that JobState and the job's event log. A replayed job's
// JobState is the store's own, and its log is the journaled accepted
// and settled pair, built when read. GET, the list, /events and group
// streams all render from it.
type settledJob struct {
	*durable.JobState
	sealed *sealedJob // nil for a replayed job
}

// sealedJob is a job settled live: its view and its event log, with
// room for a task job's lifecycle events, in one allocation.
type sealedJob struct {
	st     durable.JobState
	events []event
	evs    [lifecycleEvents]event
}

// jobRef is a job as a lookup finds it: a queued or running job's
// record, or a settled job's one form; zero when there is none.
type jobRef struct {
	j  *jobRec
	sj settledJob
}

func (f jobRef) found() bool { return f.j != nil || f.sj.JobState != nil }

// state is the job's view to render.
func (f jobRef) state() durable.JobState {
	if f.j != nil {
		return f.j.state()
	}
	return *f.sj.JobState
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

// groupRec collects related jobs of one tenant for collective streaming:
// every settled member is delivered on the stream exactly once.
type groupRec struct {
	id     string
	tenant *tenantState

	mu       sync.Mutex
	members  int
	pending  int
	ready    []settledJob    // settled, not yet streamed
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
func (g *groupRec) deliver(sj settledJob) {
	g.mu.Lock()
	g.pending--
	g.ready = append(g.ready, sj)
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
	return g.viewLocked()
}

// viewLocked is view for a caller holding g.mu.
func (g *groupRec) viewLocked() GroupView {
	return GroupView{
		ID:       g.id,
		Tenant:   g.tenant.Name,
		Members:  g.members,
		Pending:  g.pending,
		Canceled: g.canceled,
	}
}
