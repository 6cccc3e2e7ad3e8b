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

// seqOf extracts the numeric suffix of a "j-N"/"g-N" id, 0 when the id
// has another shape.
func seqOf(id, prefix string) uint64 {
	n, _ := strconv.ParseUint(strings.TrimPrefix(id, prefix), 10, 64)
	return n
}

// settledJobs is the one table of settled jobs, live-settled and
// replayed: the job "j-N" at index N of bySeq (and its sealedJob, when
// it settled live, at N of sealed) while N stays within about twice its
// length, any other job in byID. Guarded by Server.mu.
type settledJobs struct {
	bySeq  []*durable.JobState
	sealed []*sealedJob // replay leaves it empty
	byID   map[string]settledJob
}

// get returns the settled job id, zero when there is none.
func (t *settledJobs) get(id string) settledJob {
	if n := seqOf(id, "j-"); n < uint64(len(t.bySeq)) && t.bySeq[n] != nil && t.bySeq[n].ID == id {
		sj := settledJob{JobState: t.bySeq[n]}
		if n < uint64(len(t.sealed)) {
			sj.sealed = t.sealed[n]
		}
		return sj
	}
	return t.byID[id]
}

// put files sj, whose ID has the number n (seqOf), at n when that slot
// is in reach and free (an ID such as "j-07" may share "j-7"'s), else by
// its ID.
func (t *settledJobs) put(n uint64, sj settledJob) {
	if n == 0 || n > 2*uint64(len(t.bySeq))+64 || (n < uint64(len(t.bySeq)) && t.bySeq[n] != nil) {
		if t.byID == nil {
			t.byID = make(map[string]settledJob)
		}
		t.byID[sj.ID] = sj
		return
	}
	for uint64(len(t.bySeq)) <= n {
		t.bySeq = append(t.bySeq, nil)
	}
	t.bySeq[n] = sj.JobState
	if sj.sealed != nil {
		for uint64(len(t.sealed)) <= n {
			t.sealed = append(t.sealed, nil)
		}
		t.sealed[n] = sj.sealed
	}
}

// retire journals a settled job's settle, collapses the job into its
// sealedJob (its view without the arg, which no view shows, and its
// log), moves it from Server.jobs to the settled table in one lock
// hold, and delivers it to its group.
func (s *Server) retire(j *jobRec) {
	sealed := &sealedJob{st: j.state()}
	st := &sealed.st
	s.journalBestEffort(durable.Entry{Op: durable.OpSettle, ID: st.ID, At: st.FinishedNs,
		Status: st.Status, Result: st.Result, Error: st.Error, Recovered: st.Recovered})
	st.Arg = nil
	j.events.mu.Lock()
	sealed.events = append(sealed.evs[:0], j.events.events...)
	j.events.mu.Unlock()
	sj := settledJob{JobState: st, sealed: sealed}
	s.mu.Lock()
	delete(s.jobs, st.ID)
	s.settled.put(seqOf(st.ID, "j-"), sj)
	s.mu.Unlock()
	if j.group != nil {
		j.group.deliver(sj)
	}
}

// findLocked finds tenant t's job by ID: its record while it is queued
// or running, its settledJob once it has settled; neither when t has no
// job by that ID. It builds nothing. Caller holds s.mu.
func (s *Server) findLocked(id string, t *tenantState) jobRef {
	f := jobRef{j: s.jobs[id]}
	if f.j == nil {
		f.sj = s.settled.get(id)
	}
	if (f.j != nil && f.j.tenant != t) || (f.sj.JobState != nil && f.sj.Tenant != t.Name) {
		return jobRef{}
	}
	return f
}

// recoverFromStore rebuilds the server's job and group tables from the
// store's recovered state. Runs inside New, before any job is
// launched, so no locking is contended; Server.mu is still held for the
// invariant's sake. A settled job is filed in the settled table as the
// store's own JobState, with its ID on its tenant's list, and nothing
// else is built; a queued or mid-flight job gets its record from the
// live builder and goes back to its tenant's FIFO. Settled members of
// recovered groups are re-queued for streaming (delivery is
// exactly-once per server lifetime, at-least-once across restarts:
// stream positions are not journaled). The recovered state is the
// store's own, so nothing is journaled until it has been read.
func (s *Server) recoverFromStore() {
	rec := s.cfg.store.Recovered()
	s.mu.Lock()
	defer s.mu.Unlock()

	// The store hands jobs and groups over in accept order, so tenant
	// FIFOs and job lists come back in the order they were filled.
	var maxG uint64
	for _, gs := range rec.GroupOrder {
		maxG = max(maxG, seqOf(gs.ID, "g-"))
		t := s.byName[gs.Tenant]
		if t == nil {
			continue // members settle tenant_gone below
		}
		s.groups[gs.ID] = &groupRec{id: gs.ID, tenant: t, notify: make(chan struct{}, 1)}
	}

	s.settled.bySeq = make([]*durable.JobState, len(rec.JobOrder)+1)
	s.replayedAt = time.Now().UnixNano()
	var gone []durable.Entry
	var maxJ uint64
	for _, js := range rec.JobOrder {
		id, n := js.ID, seqOf(js.ID, "j-")
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
		var g *groupRec
		if js.Group != "" {
			g = s.groups[js.Group]
		}
		if g != nil {
			g.members++
			g.pending++
		} else if js.Group != "" {
			// A view names only a group the service knows: this job's
			// view goes without its group, settled or not.
			c := *js
			c.Group = ""
			js = &c
		}
		if js.Settled() {
			sj := settledJob{JobState: js}
			s.settled.put(n, sj)
			if g != nil {
				g.pending--
				g.ready = append(g.ready, sj)
			}
			continue
		}
		// A queued or mid-flight job goes back to its tenant's FIFO; a
		// mid-flight one is marked recovered: its (builtin,
		// deterministic) work is re-executed from the journaled payload.
		j := newJob(durable.JobState{
			ID: id, Tenant: js.Tenant, Kind: js.Kind, Name: js.Name, Arg: js.Arg, N: js.N, Group: js.Group,
			Recovered: js.Status == durable.StatusRunning, SubmittedNs: js.SubmittedNs,
		}, t, g)
		j.replayed, j.accepted = true, s.stamp(js.SubmittedNs)
		j.events.add(event{at: j.accepted, typ: EventAccepted, chunk: -1, domain: noDomain})
		t.queue = append(t.queue, j)
		t.inflight++
		s.st.replayed.Add(1)
		s.jobs[id] = j
	}
	for _, e := range gone {
		s.journalBestEffort(e)
	}
	s.jobSeq.Store(maxJ)
	s.groupSeq.Store(maxG)
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
