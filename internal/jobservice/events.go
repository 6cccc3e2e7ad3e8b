package jobservice

import (
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

// event is one JobEvent as a log holds it: its domain unboxed
// (noDomain for none), its seq and coordinates 32-bit. appendEvent
// renders it as encoding/json renders the JobEvent it stands for.
type event struct {
	at           int64
	seq          int32
	chunk, total int32
	domain       int16
	typ, status  string
}

// noDomain is the domain of an event that names none.
const noDomain = -1 << 15

// eventLogCap bounds one job's retained events: a drop-oldest window,
// like the trace ring. Seq numbers stay global, so a follower
// can detect the gap.
const eventLogCap = 256

// eventLog is one job's append-only progress log with follower support.
// pulse exists only while a follower waits: appendSince makes it, and
// the next append closes and clears it, waking every waiter. A job
// nobody follows never allocates one.
type eventLog struct {
	mu     sync.Mutex
	events []event
	seq    int32
	done   bool
	pulse  chan struct{}
}

// add stamps and appends one event, returning the stamped copy.
func (l *eventLog) add(e event) event {
	l.mu.Lock()
	defer l.mu.Unlock()
	e.seq = l.seq
	l.seq++
	if e.at == 0 {
		e.at = time.Now().UnixNano()
	}
	l.events = append(l.events, e)
	if len(l.events) > eventLogCap {
		l.events = l.events[len(l.events)-eventLogCap:]
	}
	if e.typ == EventSettled {
		l.done = true
	}
	if l.pulse != nil {
		close(l.pulse)
		l.pulse = nil
	}
	return e
}

// appendSince appends the retained events with seq >= seq to b as
// NDJSON lines and returns the seq to follow from, whether the log is
// sealed, and, unless it is, a channel that pulses on the next append.
func (l *eventLog) appendSince(b []byte, seq int32) (_ []byte, next int32, done bool, pulse <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.events {
		if l.events[i].seq >= seq {
			b = append(appendEvent(b, &l.events[i]), '\n')
		}
	}
	if !l.done && l.pulse == nil {
		l.pulse = make(chan struct{})
	}
	return b, l.seq, l.done, l.pulse
}

// taskInstants returns the instants of the log's first task_sent and
// last task_done, 0 for one it does not hold.
func (l *eventLog) taskInstants() (sent, done int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, e := range l.events {
		switch {
		case e.typ == EventTaskSent && sent == 0: // a resend does not restart the clock
			sent = e.at
		case e.typ == EventTaskDone:
			done = e.at
		}
	}
	return sent, done
}

// progress appends one event to the job's log and, when the job belongs
// to a group, mirrors it onto the group's progress queue. Never called
// with Server.mu held: group delivery takes the group lock.
func (j *jobRec) progress(e event) {
	stamped := j.events.add(e)
	if j.group != nil && e.typ != EventSettled {
		j.group.deliverProgress(j.st.ID, stamped)
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
	j.progress(event{typ: typ, chunk: -1, domain: int16(ev.Domain)})
}

// groupProgress is one member progress line queued for the group
// stream.
type groupProgress struct {
	jobID string
	event event
}

// groupProgressCap bounds a group's undrained progress queue; a slow or
// absent streamer loses the oldest lines, never completions.
const groupProgressCap = 1024

// deliverProgress queues one member progress event for the stream.
func (g *groupRec) deliverProgress(jobID string, e event) {
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
// already-settled job the log is written in one piece and the stream
// ends.
func (s *Server) apiJobEvents(w http.ResponseWriter, r *http.Request, t *tenantState) {
	f := s.jobOf(r, t)
	if !f.found() {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	l := s.logOf(f)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	bp := renderBufs.Get().(*[]byte)
	defer putRender(bp)
	var next int32
	for {
		b, seq, done, pulse := l.appendSince((*bp)[:0], next)
		*bp, next = b, seq
		if len(b) > 0 {
			if _, err := w.Write(b); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
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

// logOf is the event log of the job f: a queued or running job's own,
// or a sealed one holding a settled job's events: those it logged live,
// or a replayed job's journaled accepted and settled events.
func (s *Server) logOf(f jobRef) *eventLog {
	if f.j != nil {
		return f.j.events
	}
	if f.sj.sealed != nil {
		return &eventLog{events: f.sj.sealed.events, done: true}
	}
	return &eventLog{done: true, events: []event{
		{at: s.stamp(f.sj.SubmittedNs), typ: EventAccepted, chunk: -1, domain: noDomain},
		{at: s.stamp(f.sj.FinishedNs), seq: 1, typ: EventSettled, chunk: -1, domain: noDomain, status: f.sj.Status},
	}}
}

// stamp is a replayed event's instant: the journaled one, or the
// recovery instant for a journal without it.
func (s *Server) stamp(ns int64) int64 {
	if ns != 0 {
		return ns
	}
	return s.replayedAt
}
