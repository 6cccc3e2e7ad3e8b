// Package spans folds the runtime's flat trace events into lifetime
// spans — one record per fabric task (a parallel-for chunk is one) or
// parallel region, from first dispatch to settled result — the way a tracing
// backend folds raw log lines into spans. Where internal/trace answers
// "what happened, in order", spans answers "how long did each unit of
// work live, where did it run, and was it retried or recovered".
//
// The Exporter implements core.Monitor (fork/join become region spans;
// the other callbacks are ignored) and taskfabric.EventSink
// (TaskSend/TaskRecv become task spans; steals are counted) —
// structurally, so the package imports only internal/core and can be
// wired everywhere without cycles. Task IDs are unique across fabrics,
// so one exporter may serve several. Completed spans land in a bounded
// ring, mirroring trace.Recorder's retention contract: aggregate
// counters cover the whole run, the ring keeps the most recent spans.
//
// The job service serves the exporter's state at GET /v1/spans
// (jobservice.WithSpans), and the chaos runner uses it to check that a
// campaign's fault schedule actually produced retries and recoveries.
package spans

import (
	"encoding/json"
	"sync"
	"time"

	"openmpmca/internal/core"
)

// Kind says what unit of work a span covers.
type Kind string

// Span kinds.
const (
	KindTask   Kind = "task"   // one fabric task (taskfabric.EventSink)
	KindRegion Kind = "region" // one fork/join parallel region (core.Monitor)
)

// Span is one folded work lifetime. A span opens on the first dispatch
// event for its id (submit→send collapse into the first send the sinks
// observe) and completes on the matching result event; region spans
// open on fork and complete on join.
type Span struct {
	ID   uint64 `json:"id"` // task id; region ordinal for regions
	Kind Kind   `json:"kind"`
	// Domain is the executor that delivered the result: a worker domain
	// id, or -1 for the host (local execution, or a region). Zero until
	// the span completes.
	Domain int `json:"domain"`
	// N is the team size for region spans; 0 otherwise.
	N       int   `json:"n,omitempty"`
	StartNs int64 `json:"start_ns"`          // unix nanos of the opening event
	EndNs   int64 `json:"end_ns,omitempty"`  // unix nanos of completion; 0 while open
	DurNs   int64 `json:"dur_ns,omitempty"`  // EndNs - StartNs
	Sends   int   `json:"sends,omitempty"`   // dispatch attempts observed
	Retried bool  `json:"retried,omitempty"` // >1 send: deadline expiry or loss re-dispatch
	// Recovered marks a task that was dispatched to a worker
	// domain and later re-dispatched to the host — the signature of
	// domain-loss recovery or retry-exhaustion fallback.
	Recovered bool `json:"recovered,omitempty"`
	// Domains lists every executor the work was dispatched to, in
	// order, when there was more than one.
	Domains []int `json:"domains,omitempty"`
}

// Stats aggregates an exporter's whole run, independent of ring wrap.
type Stats struct {
	Opened    uint64 `json:"opened"`    // spans started
	Completed uint64 `json:"completed"` // spans settled
	Dropped   uint64 `json:"dropped"`   // completed spans evicted by the ring bound
	Retries   uint64 `json:"retries"`   // extra dispatch attempts across all spans
	Recovered uint64 `json:"recovered"` // spans re-executed on the host after a remote send
	Steals    uint64 `json:"steals"`    // task migrations, brokered and direct (not attributable to one span)
	// PeerSteals counts the subset of Steals that moved domain-to-domain
	// over the mesh without the host relaying the task frame.
	PeerSteals uint64 `json:"peer_steals,omitempty"`
}

// View is the JSON shape of an exporter snapshot: the retained
// completed spans (oldest first), the still-open spans, and the
// whole-run aggregates. GET /v1/spans serves exactly this.
type View struct {
	Spans []Span `json:"spans"`
	Open  []Span `json:"open,omitempty"`
	Stats Stats  `json:"stats"`
}

// DefaultCapacity bounds an exporter's ring when 0 is requested.
const DefaultCapacity = 2048

// Exporter folds events into spans. Create one with NewExporter; wire
// it via core.WithMonitor / taskfabric.WithEventSink (directly or
// through a trace.Tee) and read
// it back with Snapshot. Safe for concurrent use.
type Exporter struct {
	mu        sync.Mutex
	ring      []Span // completed spans, bounded
	next      int
	full      bool
	tasks     map[uint64]*Span // open, by task id
	regions   []*Span          // open region spans, LIFO (nesting)
	regionSeq uint64
	st        Stats
	nowFn     func() int64 // test seam; time.Now().UnixNano()
}

// NewExporter creates an exporter retaining the last capacity completed
// spans (DefaultCapacity if capacity <= 0).
func NewExporter(capacity int) *Exporter {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Exporter{
		ring:  make([]Span, 0, capacity),
		tasks: make(map[uint64]*Span),
		nowFn: func() int64 { return time.Now().UnixNano() },
	}
}

// TaskSend implements taskfabric.EventSink: a task dispatched to a
// domain (-1 = host-local). The first send opens the task's span; any
// later one is a re-dispatch — a deadline retry, a steal migration or a
// loss recovery.
func (x *Exporter) TaskSend(domain, task int) {
	id := uint64(task)
	x.mu.Lock()
	defer x.mu.Unlock()
	sp := x.tasks[id]
	if sp == nil {
		x.tasks[id] = &Span{ID: id, Kind: KindTask, StartNs: x.nowFn(), Sends: 1, Domains: []int{domain}}
		x.st.Opened++
		return
	}
	sp.Sends++
	sp.Retried = true
	sp.Domains = append(sp.Domains, domain)
	x.st.Retries++
	if domain < 0 && sp.Domains[0] >= 0 {
		sp.Recovered = true
		x.st.Recovered++
	}
}

// TaskRecv implements taskfabric.EventSink: a task result accepted. It
// settles the task's span and retires it into the ring.
func (x *Exporter) TaskRecv(domain, task int) {
	id := uint64(task)
	x.mu.Lock()
	defer x.mu.Unlock()
	sp := x.tasks[id]
	if sp == nil {
		// Result without an observed dispatch (sink wired mid-run):
		// synthesize a zero-length span so counts still balance.
		sp = &Span{ID: id, Kind: KindTask, StartNs: x.nowFn()}
		x.st.Opened++
	} else {
		delete(x.tasks, id)
	}
	sp.Domain = domain
	sp.EndNs = x.nowFn()
	sp.DurNs = sp.EndNs - sp.StartNs
	if len(sp.Domains) == 1 {
		sp.Domains = nil // the single executor is already in Domain
	}
	x.retire(*sp)
}

// retire appends one completed span to the bounded ring. Caller holds mu.
func (x *Exporter) retire(sp Span) {
	x.st.Completed++
	if len(x.ring) < cap(x.ring) {
		x.ring = append(x.ring, sp)
		return
	}
	x.ring[x.next] = sp
	x.next = (x.next + 1) % cap(x.ring)
	x.full = true
	x.st.Dropped++
}

// TaskSteal implements taskfabric.EventSink. Steal grants carry domain
// ids, not task ids, so migrations are counted rather than attributed;
// the migrated tasks' spans still show the extra send.
func (x *Exporter) TaskSteal(_, _ int) {
	x.mu.Lock()
	x.st.Steals++
	x.mu.Unlock()
}

// PeerSteal implements taskfabric.PeerStealSink: a direct mesh steal,
// already counted in Steals via the accompanying TaskSteal callback.
func (x *Exporter) PeerSteal(_, _ int) {
	x.mu.Lock()
	x.st.PeerSteals++
	x.mu.Unlock()
}

// Fork implements core.Monitor: opens a region span.
func (x *Exporter) Fork(n int) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.regionSeq++
	sp := &Span{ID: x.regionSeq, Kind: KindRegion, Domain: -1, N: n,
		StartNs: x.nowFn(), Sends: 1}
	x.regions = append(x.regions, sp)
	x.st.Opened++
}

// Join implements core.Monitor: completes the most recently opened
// region span (regions join LIFO on one runtime).
func (x *Exporter) Join() {
	x.mu.Lock()
	defer x.mu.Unlock()
	if len(x.regions) == 0 {
		return
	}
	sp := x.regions[len(x.regions)-1]
	x.regions = x.regions[:len(x.regions)-1]
	sp.EndNs = x.nowFn()
	sp.DurNs = sp.EndNs - sp.StartNs
	x.retire(*sp)
}

// The remaining core.Monitor callbacks carry no span boundaries.

// Charge implements core.Monitor.
func (x *Exporter) Charge(int, float64) {}

// Barrier implements core.Monitor.
func (x *Exporter) Barrier() {}

// CriticalEnter implements core.Monitor.
func (x *Exporter) CriticalEnter(int) {}

// CriticalExit implements core.Monitor.
func (x *Exporter) CriticalExit(int) {}

// Single implements core.Monitor.
func (x *Exporter) Single(int) {}

// Reduction implements core.Monitor.
func (x *Exporter) Reduction(int) {}

// Task implements core.Monitor.
func (x *Exporter) Task(int) {}

// Steal implements core.Monitor (intra-team deque steal, not a fabric
// migration).
func (x *Exporter) Steal(int, int) {}

// NestedFork implements core.Monitor. Nested regions are not folded:
// only top-level forks the runtime reports via Fork become spans.
func (x *Exporter) NestedFork(int, int) {}

// NestedJoin implements core.Monitor.
func (x *Exporter) NestedJoin(int) {}

// Cancel implements core.Monitor.
func (x *Exporter) Cancel() {}

var _ core.Monitor = (*Exporter)(nil)

// Completed returns the retained completed spans, oldest first.
func (x *Exporter) Completed() []Span {
	x.mu.Lock()
	defer x.mu.Unlock()
	if !x.full {
		return append([]Span(nil), x.ring...)
	}
	out := make([]Span, 0, cap(x.ring))
	out = append(out, x.ring[x.next:]...)
	out = append(out, x.ring[:x.next]...)
	return out
}

// Open returns the currently open spans (order unspecified).
func (x *Exporter) Open() []Span {
	x.mu.Lock()
	defer x.mu.Unlock()
	out := make([]Span, 0, len(x.tasks)+len(x.regions))
	for _, sp := range x.tasks {
		out = append(out, *sp)
	}
	for _, sp := range x.regions {
		out = append(out, *sp)
	}
	return out
}

// Stats returns the whole-run aggregates.
func (x *Exporter) Stats() Stats {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.st
}

// Snapshot assembles the full JSON view: retained spans, open spans,
// aggregates.
func (x *Exporter) Snapshot() View {
	return View{Spans: x.Completed(), Open: x.Open(), Stats: x.Stats()}
}

// ExportJSON serializes Snapshot.
func (x *Exporter) ExportJSON() ([]byte, error) {
	return json.Marshal(x.Snapshot())
}

// Reset clears the exporter: ring, open spans and aggregates.
func (x *Exporter) Reset() {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.ring = x.ring[:0]
	x.next = 0
	x.full = false
	x.tasks = make(map[uint64]*Span)
	x.regions = nil
	x.regionSeq = 0
	x.st = Stats{}
}
