// Package spans folds the task fabric's flat events into lifetime
// spans — one record per fabric task (a parallel-for chunk is one), from
// first dispatch to settled result — the way a tracing backend folds raw
// log lines into spans. Where internal/trace answers "what happened, in
// order", spans answers "how long did each task live, where did it run,
// and was it retried or recovered".
//
// The Exporter implements taskfabric.EventSink: sends and receives
// become task spans, steals are counted. Task IDs are unique across
// fabrics, so one exporter may serve several. Completed spans land in a
// bounded ring, mirroring trace.Recorder's retention contract: aggregate
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

	"openmpmca/internal/trace"
)

// Kind says what unit of work a span covers.
type Kind string

// KindTask is the one span kind: a fabric task.
const KindTask Kind = "task"

// Span is one folded task lifetime. A span opens on the first dispatch
// event for its id (submit→send collapse into the first send the sink
// observes) and completes on the matching result event.
type Span struct {
	ID   uint64 `json:"id"` // task id
	Kind Kind   `json:"kind"`
	// Domain is the executor that delivered the result: a worker domain
	// id, or -1 for the host. Zero until the span completes.
	Domain  int   `json:"domain"`
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
	Steals    uint64 `json:"steals"`    // task migrations over the peer mesh
	// PeerSteals equals Steals: the mesh is the fabric's only steal
	// path.
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
// it via taskfabric.WithEventSink and read it back with Snapshot. Safe
// for concurrent use.
type Exporter struct {
	mu    sync.Mutex
	ring  []Span // completed spans, bounded
	next  int
	full  bool
	tasks map[uint64]*Span // open, by task id
	st    Stats
	nowFn func() int64 // test seam; time.Now().UnixNano()
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

// Event implements taskfabric.EventSink. The first send of a task opens
// its span and any later one is a re-dispatch — a deadline retry, a
// steal migration or a loss recovery; a receive settles the span and
// retires it into the ring; steals are counted.
func (x *Exporter) Event(ev trace.FabricEvent) {
	x.mu.Lock()
	defer x.mu.Unlock()
	switch ev.Kind {
	case trace.EvTaskSend:
		x.send(ev.Task, ev.Domain)
	case trace.EvTaskRecv:
		x.recv(ev.Task, ev.Domain)
	case trace.EvPeerSteal:
		x.st.Steals++
		x.st.PeerSteals++
	}
}

// send folds one dispatch of task id to domain (-1 = host-local). Caller
// holds mu.
func (x *Exporter) send(id uint64, domain int) {
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

// recv settles task id's span with the executor that delivered it.
// Caller holds mu.
func (x *Exporter) recv(id uint64, domain int) {
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
	out := make([]Span, 0, len(x.tasks))
	for _, sp := range x.tasks {
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
	x.st = Stats{}
}
