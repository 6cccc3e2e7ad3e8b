package jobservice

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"openmpmca/internal/trace"
)

// Per-job progress streaming: every job carries a bounded event log
// recording its lifecycle transitions plus fine-grained execution
// progress — chunk completions for parallel_for jobs (fed by the
// region call's per-chunk callback) and task send/receive/steal for
// fabric jobs (fed by the observer the job's task carries from submit).
// Clients follow a single job at GET /v1/jobs/{id}/events (NDJSON), and
// group streams interleave members' progress lines with the existing
// settled-member events.

// Job event types, in rough lifecycle order.
const (
	EventAccepted   = "accepted"    // admitted, journaled when durable, and its 202 sent
	EventDispatched = "dispatched"  // handed to the fabric
	EventTaskSent   = "task_sent"   // fabric task dispatched to a domain
	EventTaskDone   = "task_done"   // fabric task result accepted
	EventTaskStolen = "task_stolen" // fabric task taken by a peer domain; Domain is the thief
	EventChunk      = "chunk"       // one parallel_for chunk completed
	EventSettled    = "settled"     // terminal: succeeded, failed or canceled
)

// JobEvent is one line of a job's progress stream. Chunk is -1 and
// Domain absent when the event type carries no such coordinate; Domain
// -1 on a chunk or task event means host-local execution, as in
// trace.FabricEvent. AtNs is the event's unix-nanosecond instant: the
// latency histograms (latency.go) and the benchmark harness measure
// their intervals between these instants.
type JobEvent struct {
	Seq    int    `json:"seq"`
	AtNs   int64  `json:"at_ns"`
	Type   string `json:"type"`
	Chunk  int    `json:"chunk,omitempty"`
	Total  int    `json:"total,omitempty"`  // region chunk count, on chunk events
	Domain *int   `json:"domain,omitempty"` // executor; -1 = host
	Status string `json:"status,omitempty"` // terminal status, on settled events
}

// eventLogCap bounds one job's retained events: a drop-oldest window,
// like the trace ring. Seq numbers stay global, so a follower
// can detect the gap.
const eventLogCap = 256

// eventLog is one job's append-only progress log with follower support.
// pulse exists only while a follower waits: since makes it, and the
// next append closes and clears it, waking every waiter. A job nobody
// follows never allocates one.
type eventLog struct {
	mu     sync.Mutex
	events []JobEvent
	seq    int
	done   bool
	pulse  chan struct{}
}

// add stamps and appends one event, returning the stamped copy.
func (l *eventLog) add(e JobEvent) JobEvent {
	l.mu.Lock()
	e.Seq = l.seq
	l.seq++
	if e.AtNs == 0 {
		e.AtNs = time.Now().UnixNano()
	}
	l.events = append(l.events, e)
	if len(l.events) > eventLogCap {
		l.events = l.events[len(l.events)-eventLogCap:]
	}
	if e.Type == EventSettled {
		l.done = true
	}
	if l.pulse != nil {
		close(l.pulse)
		l.pulse = nil
	}
	l.mu.Unlock()
	return e
}

// since returns the retained events with Seq >= seq, whether the log is
// terminal, and — unless it is — a channel that pulses on the next
// append.
func (l *eventLog) since(seq int) (evs []JobEvent, done bool, pulse <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range l.events {
		if e.Seq >= seq {
			evs = append(evs, e)
		}
	}
	if !l.done && l.pulse == nil {
		l.pulse = make(chan struct{})
	}
	return evs, l.done, l.pulse
}

// taskInstants returns the instants of the log's first task_sent and
// last task_done, 0 for one it does not hold.
func (l *eventLog) taskInstants() (sent, done int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range l.events {
		switch {
		case e.Type == EventTaskSent && sent == 0: // a resend does not restart the clock
			sent = e.AtNs
		case e.Type == EventTaskDone:
			done = e.AtNs
		}
	}
	return sent, done
}

// domainOf boxes a domain id for the JSON shape.
func domainOf(d int) *int { return &d }

// progress appends one event to the job's log and, when the job belongs
// to a group, mirrors it onto the group's progress queue. Never called
// with Server.mu held: group delivery takes the group lock.
func (j *jobRec) progress(e JobEvent) {
	stamped := j.events.add(e)
	if j.group != nil && e.Type != EventSettled {
		j.group.deliverProgress(j.id, stamped)
	}
}

// observe is a fabric job's task observer: it turns the task's event
// records into progress lines: task_sent, task_done, and task_stolen
// for a peer steal, naming the thief domain the task moved to.
func (j *jobRec) observe(ev trace.FabricEvent) {
	var typ string
	switch ev.Kind {
	case trace.EvTaskSend:
		typ = EventTaskSent
	case trace.EvTaskRecv:
		typ = EventTaskDone
	case trace.EvPeerSteal:
		typ = EventTaskStolen
	default:
		return
	}
	j.progress(JobEvent{Type: typ, Chunk: -1, Domain: domainOf(ev.Domain)})
}

// groupProgress is one member progress line queued for the group
// stream.
type groupProgress struct {
	jobID string
	event JobEvent
}

// groupProgressCap bounds a group's undrained progress queue; a slow or
// absent streamer loses the oldest lines, never completions.
const groupProgressCap = 1024

// deliverProgress queues one member progress event for the stream.
func (g *groupRec) deliverProgress(jobID string, e JobEvent) {
	g.mu.Lock()
	g.progress = append(g.progress, groupProgress{jobID: jobID, event: e})
	if len(g.progress) > groupProgressCap {
		g.progress = g.progress[len(g.progress)-groupProgressCap:]
	}
	g.mu.Unlock()
	select {
	case g.notify <- struct{}{}:
	default:
	}
}

// ---------------------------------------------------------------------------
// GET /v1/jobs/{id}/events

// apiJobEvents streams one job's progress log as NDJSON from the
// beginning, following live until the job settles (the settled event is
// the last line), the client disconnects, or the server stops. For an
// already-settled job the retained log is dumped and the stream ends.
func (s *Server) apiJobEvents(w http.ResponseWriter, r *http.Request, t *tenantState) {
	j := s.jobOf(r, t)
	if j == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	next := 0
	for {
		evs, done, pulse := j.events.since(next)
		for _, e := range evs {
			if enc.Encode(e) != nil {
				return
			}
			next = e.Seq + 1
		}
		if len(evs) > 0 && flusher != nil {
			flusher.Flush()
		}
		if done {
			return
		}
		select {
		case <-pulse:
		case <-r.Context().Done():
			return
		case <-s.stopCh:
			return
		}
	}
}
