package jobservice

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"openmpmca/internal/core"
	"openmpmca/internal/durable"
	"openmpmca/internal/oerrors"
)

// Durable job store wiring. With a store attached, every job-state
// transition is journaled — group creation, acceptance (with the full
// payload), dispatch, settlement (with result bytes) — and New replays
// the store's recovered state before any job is launched: settled
// jobs come back queryable with their exact results, queued jobs
// re-enter their tenants' FIFOs, and jobs that were mid-flight when the
// process died are re-enqueued for deterministic re-execution with the
// recovered flag set. Without a store the server behaves exactly as
// before — every hook is nil-guarded.
//
// The durability contract: an accept record is fsynced before the
// HTTP 202 leaves the server, so an acknowledged job is never lost.
// Dispatch and settle records are appended best-effort — losing one
// costs only a redundant (deterministic) re-execution after a crash,
// never a wrong or missing result.

// WithStateDir opens (creating if needed) a durable store in dir and
// attaches it: the server journals to it, replays its recovered state
// in New, and closes it in Close.
func WithStateDir(dir string, opts ...durable.Option) Option {
	return func(c *config) error {
		if strings.TrimSpace(dir) == "" {
			return fmt.Errorf("%w: jobservice: WithStateDir(\"\")", core.ErrInvalidOption)
		}
		st, err := durable.Open(dir, opts...)
		if err != nil {
			return err
		}
		c.store = st
		return nil
	}
}

// journal appends one entry when a store is attached. The returned
// error matters only on the accept path, where durability gates the
// 202.
func (s *Server) journal(e durable.Entry) error {
	if s.appendEntry == nil {
		return nil
	}
	return s.appendEntry(e)
}

// journalBestEffort appends a dispatch/settle record, tolerating
// failure: the entry only saves a deterministic re-execution after a
// crash. Store errors were classified and counted at creation; a closed
// store during shutdown is expected.
func (s *Server) journalBestEffort(e durable.Entry) {
	if err := s.journal(e); err != nil && !errors.Is(err, durable.ErrClosed) {
		_ = err // counted in the oerrors taxonomy by the store
	}
}

// settleEntry builds the OpSettle record for a settled job.
func settleEntry(j *jobRec) durable.Entry {
	j.mu.Lock()
	defer j.mu.Unlock()
	return durable.Entry{
		Op:        durable.OpSettle,
		ID:        j.id,
		At:        j.finished.UnixNano(),
		Status:    j.status,
		Result:    j.result,
		Error:     j.errMsg,
		Recovered: j.recovered,
	}
}

// seqOf extracts the numeric suffix of a "j-N"/"g-N" id, 0 when the id
// has another shape. canonical reports whether id is exactly prefix
// followed by N >= 1 in decimal without leading zeros, the form the
// server issues.
func seqOf(id, prefix string) (n uint64, canonical bool) {
	digits, ok := strings.CutPrefix(id, prefix)
	n, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return 0, false
	}
	return n, ok && digits[0] != '0'
}

// settledDone is the done channel every replayed settled job shares:
// closed here, once, and never again, because settle and cancelQueued
// leave a terminal job's channel alone.
var settledDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// replayedJob is what a replayed job needs: its record, its event log
// and room for the log's first two events, in one allocation.
type replayedJob struct {
	rec jobRec
	log eventLog
	evs [2]JobEvent
}

// coldJobs are the replayed jobs that have no record yet: settled,
// ungrouped jobs with a canonical "j-N" ID, each kept as the store's
// own JobState (immutable once settled) at index N until its first
// lookup builds its record. After a restart clients read few of the old
// jobs, so most never get one. Guarded by Server.mu.
type coldJobs struct {
	bySeq []*durable.JobState
	at    int64 // the recovery instant: the stamp of an event the journal holds no time for
}

// stamp is a replayed event's instant: the journaled one, or the
// recovery instant for a journal without it.
func (c *coldJobs) stamp(ns int64) int64 {
	if ns != 0 {
		return ns
	}
	return c.at
}

// replayedRec builds, in r, the record of a job replayed from the store
// for tenant t: a settled job with its result and an accepted and a
// settled event stamped from the journal, any other queued with its
// accepted event. Its group, if any, is the caller's to link. Replay
// and a cold job's first lookup both build records here.
func (s *Server) replayedRec(r *replayedJob, js *durable.JobState, t *tenantState) *jobRec {
	j := &r.rec
	j.id, j.tenant, j.kind, j.name, j.arg, j.n = js.ID, t, js.Kind, js.Name, js.Arg, js.N
	j.events = &r.log
	if js.SubmittedNs != 0 {
		j.submitted = time.Unix(0, js.SubmittedNs)
	}
	j.accepted = s.cold.stamp(js.SubmittedNs)
	r.evs[0] = JobEvent{AtNs: j.accepted, Type: EventAccepted, Chunk: -1}
	if !js.Settled() {
		// A queued or mid-flight job goes back to its tenant's FIFO; a
		// mid-flight one is marked recovered: its (builtin,
		// deterministic) work is re-executed from the journaled payload.
		j.status = StatusQueued
		j.replayed = true
		j.recovered = js.Status == durable.StatusRunning
		j.done = make(chan struct{})
		r.log.events, r.log.seq = r.evs[:1], 1
		return j
	}
	j.status, j.result, j.errMsg, j.recovered = js.Status, js.Result, js.Error, js.Recovered
	if js.StartedNs != 0 {
		j.started = time.Unix(0, js.StartedNs)
	}
	if js.FinishedNs != 0 {
		j.finished = time.Unix(0, js.FinishedNs)
	}
	j.done = settledDone
	r.evs[1] = JobEvent{Seq: 1, AtNs: s.cold.stamp(js.FinishedNs), Type: EventSettled, Chunk: -1, Status: j.status}
	r.log.events, r.log.seq, r.log.done = r.evs[:2], 2, true
	return j
}

// findLocked finds tenant t's job by ID without building a record: its
// record, or a cold job's JobState; neither when t has no job by that
// ID. Caller holds s.mu.
func (s *Server) findLocked(id string, t *tenantState) (*jobRec, *durable.JobState) {
	if j := s.jobs[id]; j != nil {
		if j.tenant != t {
			return nil, nil
		}
		return j, nil
	}
	n, canonical := seqOf(id, "j-")
	if !canonical || n >= uint64(len(s.cold.bySeq)) {
		return nil, nil
	}
	js := s.cold.bySeq[n]
	if js == nil || js.Tenant != t.Name {
		return nil, nil
	}
	return nil, js
}

// lookupLocked finds tenant t's job by ID, nil when t has none by that
// ID. A cold job gets its record here, on its owner's first lookup, and
// keeps it. Caller holds s.mu.
func (s *Server) lookupLocked(id string, t *tenantState) *jobRec {
	j, js := s.findLocked(id, t)
	if js == nil {
		return j
	}
	n, _ := seqOf(id, "j-")
	s.cold.bySeq[n] = nil
	j = s.replayedRec(new(replayedJob), js, t)
	s.jobs[js.ID] = j
	return j
}

// recoverFromStore rebuilds the server's job and group tables from the
// store's recovered state. Runs inside New, before any job is
// launched, so no locking is contended; Server.mu is still held for the
// invariant's sake. A settled, ungrouped job with a canonical ID stays
// cold: its ID goes on its tenant's list, its JobState into the cold
// table, and nothing else is built. Every other job gets its record
// now. Settled members of recovered groups are re-queued for streaming
// (delivery is exactly-once per server lifetime, at-least-once across
// restarts: stream positions are not journaled). The recovered state is
// the store's own, so nothing is journaled until it has been read.
func (s *Server) recoverFromStore() {
	rec := s.cfg.store.Recovered()
	s.mu.Lock()
	defer s.mu.Unlock()

	// The store hands jobs and groups over in accept order, so tenant
	// FIFOs and job lists come back in the order they were filled.
	var maxG uint64
	for _, gs := range rec.GroupOrder {
		n, _ := seqOf(gs.ID, "g-")
		maxG = max(maxG, n)
		t := s.byName[gs.Tenant]
		if t == nil {
			continue // members settle tenant_gone below
		}
		s.groups[gs.ID] = &groupRec{id: gs.ID, tenant: t, notify: make(chan struct{}, 1)}
	}

	s.cold = coldJobs{at: time.Now().UnixNano()}
	var gone []durable.Entry
	var eager []*durable.JobState
	var maxJ uint64
	for _, js := range rec.JobOrder {
		id := js.ID
		n, canonical := seqOf(id, "j-")
		maxJ = max(maxJ, n)
		t := s.byName[js.Tenant]
		if t == nil {
			// The job's tenant is no longer configured: settle it in the
			// journal so the next replay converges instead of carrying
			// the orphan forever.
			err := oerrors.Errorf(oerrors.Admission, oerrors.CodeTenantGone,
				"jobservice: replayed job %s: tenant %q no longer configured", id, js.Tenant)
			gone = append(gone, durable.Entry{
				Op: durable.OpSettle, ID: id,
				Status: durable.StatusFailed, Error: err.Error(),
			})
			continue
		}
		t.jobs = append(t.jobs, id)
		if !canonical || !s.putCold(js, n, len(rec.JobOrder)) {
			eager = append(eager, js)
		}
	}
	if len(eager) > 0 {
		s.jobs = make(map[string]*jobRec, len(eager)) // New left it empty
	}
	slab := make([]replayedJob, len(eager))
	for i, js := range eager {
		j := s.replayedRec(&slab[i], js, s.byName[js.Tenant])
		if g := s.groups[js.Group]; g != nil {
			j.group = g
			g.members++
			g.pending++
		}
		if js.Settled() {
			if j.group != nil {
				j.group.pending--
				j.group.ready = append(j.group.ready, j)
			}
		} else {
			j.tenant.queue = append(j.tenant.queue, j)
			j.tenant.inflight++
			s.st.replayed.Add(1)
		}
		s.jobs[j.id] = j
	}
	for _, e := range gone {
		s.journalBestEffort(e)
	}
	if maxJ > 0 {
		s.jobSeq.Store(maxJ)
	}
	if maxG > 0 {
		s.groupSeq.Store(maxG)
	}
}

// putCold files a settled, ungrouped job with the canonical ID "j-n" in
// the cold table, which has room for IDs up to the number of replayed
// jobs, and reports whether it did. Any other job needs a record now.
func (s *Server) putCold(js *durable.JobState, n uint64, jobs int) bool {
	if !js.Settled() || js.Group != "" || n > uint64(jobs) {
		return false
	}
	if s.cold.bySeq == nil {
		s.cold.bySeq = make([]*durable.JobState, jobs+1)
	}
	s.cold.bySeq[n] = js
	return true
}

// DurableStats returns the attached store's counters, nil without a
// store. Served as the durable section of GET /v1/stats.
func (s *Server) DurableStats() *durable.Stats {
	if s.cfg.store == nil {
		return nil
	}
	st := s.cfg.store.Stats()
	return &st
}
