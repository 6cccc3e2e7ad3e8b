package jobservice

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
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
// the store's recovered state before the dispatcher starts: settled
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
	if s.cfg.store == nil {
		return nil
	}
	return s.cfg.store.Append(e)
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
// has another shape.
func seqOf(id, prefix string) uint64 {
	n, err := strconv.ParseUint(strings.TrimPrefix(id, prefix), 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// seqID is an id with its parsed numeric suffix.
type seqID struct {
	seq uint64
	id  string
}

// sortedBySeq returns m's keys in submission order, each suffix parsed
// once: by numeric suffix, ties (and other shapes, seq 0, first) by
// string order.
func sortedBySeq[V any](m map[string]V, prefix string) []seqID {
	ids := make([]seqID, 0, len(m))
	for id := range m {
		ids = append(ids, seqID{seqOf(id, prefix), id})
	}
	slices.SortFunc(ids, func(a, b seqID) int {
		if c := cmp.Compare(a.seq, b.seq); c != 0 {
			return c
		}
		return strings.Compare(a.id, b.id)
	})
	return ids
}

// settledDone is the done channel every replayed settled job shares:
// closed here, once, and never again, because settle and cancelQueued
// leave a terminal job's channel alone.
var settledDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// replayedJob is one allocation for what a replayed job needs: its
// record, its event log and room for the log's first two events.
type replayedJob struct {
	rec jobRec
	log eventLog
	evs [2]JobEvent
}

// recoverFromStore rebuilds the server's job and group tables from the
// store's recovered state. Runs inside New, before the dispatcher
// starts, so no locking is contended; Server.mu is still held for the
// invariant's sake. Settled members of recovered groups are re-queued
// for streaming (delivery is exactly-once per server lifetime,
// at-least-once across restarts: stream positions are not journaled).
// The recovered state is the store's own, so nothing is journaled
// until it has been read.
func (s *Server) recoverFromStore() {
	rec := s.cfg.store.Recovered()
	s.mu.Lock()
	defer s.mu.Unlock()

	var maxG uint64
	for _, sg := range sortedBySeq(rec.Groups, "g-") {
		gid, gs := sg.id, rec.Groups[sg.id]
		maxG = max(maxG, sg.seq)
		t := s.byName[gs.Tenant]
		if t == nil {
			continue // members settle tenant_gone below
		}
		s.groups[gid] = &groupRec{id: gid, tenant: t, notify: make(chan struct{}, 1)}
	}

	// A replayed job's events are stamped from the journal; only a
	// journal without the time falls back to now.
	now := time.Now().UnixNano()
	stamp := func(ns int64) int64 {
		if ns != 0 {
			return ns
		}
		return now
	}
	var gone []durable.Entry
	var maxJ uint64
	s.jobs = make(map[string]*jobRec, len(rec.Jobs)) // New left it empty
	for _, sj := range sortedBySeq(rec.Jobs, "j-") {
		id, js := sj.id, rec.Jobs[sj.id]
		maxJ = max(maxJ, sj.seq)
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
		r := &replayedJob{rec: jobRec{
			id:     id,
			tenant: t,
			kind:   js.Kind,
			name:   js.Name,
			arg:    js.Arg,
			n:      js.N,
		}}
		j := &r.rec
		j.events = &r.log
		if js.SubmittedNs != 0 {
			j.submitted = time.Unix(0, js.SubmittedNs)
		}
		if js.Group != "" {
			if g := s.groups[js.Group]; g != nil {
				j.group = g
				g.members++
				g.pending++
			}
		}
		j.accepted = stamp(js.SubmittedNs)
		r.evs[0] = JobEvent{AtNs: j.accepted, Type: EventAccepted, Chunk: -1}
		if js.Settled() {
			j.status = js.Status
			j.result = js.Result
			j.errMsg = js.Error
			j.recovered = js.Recovered
			if js.StartedNs != 0 {
				j.started = time.Unix(0, js.StartedNs)
			}
			if js.FinishedNs != 0 {
				j.finished = time.Unix(0, js.FinishedNs)
			}
			j.done = settledDone
			r.evs[1] = JobEvent{Seq: 1, AtNs: stamp(js.FinishedNs), Type: EventSettled, Chunk: -1, Status: j.status}
			r.log.events, r.log.seq, r.log.done = r.evs[:2], 2, true
			if j.group != nil {
				j.group.pending--
				j.group.ready = append(j.group.ready, j)
			}
		} else {
			// Queued and mid-flight jobs alike go back to the tenant
			// FIFO; a mid-flight job is marked recovered — its (builtin,
			// deterministic) work is re-executed from the journaled
			// payload.
			j.status = StatusQueued
			j.replayed = true
			if js.Status == durable.StatusRunning {
				j.recovered = true
			}
			j.done = make(chan struct{})
			r.log.events, r.log.seq = r.evs[:1], 1
			t.queue = append(t.queue, j)
			t.inflight++
			s.st.replayed.Add(1)
		}
		s.jobs[id] = j
		t.jobs = append(t.jobs, id)
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

// DurableStats returns the attached store's counters, nil without a
// store. Served as the durable section of GET /v1/stats.
func (s *Server) DurableStats() *durable.Stats {
	if s.cfg.store == nil {
		return nil
	}
	st := s.cfg.store.Stats()
	return &st
}
