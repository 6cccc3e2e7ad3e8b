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

// WithStore attaches a caller-owned durable store. The caller keeps
// ownership: the server journals to it and replays its recovered state,
// but Close does not close it.
func WithStore(st *durable.Store) Option {
	return func(c *config) error {
		if st == nil {
			return fmt.Errorf("%w: jobservice: WithStore(nil)", core.ErrInvalidOption)
		}
		c.store = st
		return nil
	}
}

// WithStateDir opens (creating if needed) a durable store in dir and
// attaches it, server-owned: Close closes it. The shorthand for
// WithStore when the caller has no reason to hold the store itself.
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
		c.ownStore = true
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

// recoverFromStore rebuilds the server's job and group tables from the
// store's recovered state. Runs inside New, before the dispatcher
// starts, so no locking is contended; Server.mu is still held for the
// invariant's sake. Settled members of recovered groups are re-queued
// for streaming (delivery is exactly-once per server lifetime,
// at-least-once across restarts: stream positions are not journaled).
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

	var maxJ uint64
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
			s.journalBestEffort(durable.Entry{
				Op: durable.OpSettle, ID: id,
				Status: durable.StatusFailed, Error: err.Error(),
			})
			continue
		}
		j := &jobRec{
			id:     id,
			tenant: t,
			kind:   js.Kind,
			name:   js.Name,
			arg:    js.Arg,
			n:      js.N,
			events: new(eventLog),
			done:   make(chan struct{}),
		}
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
		j.events.add(JobEvent{Type: EventAccepted, Chunk: -1})
		if js.Settled() {
			j.status = js.Status
			j.result = js.Result
			j.errMsg = js.Error
			j.recovered = js.Recovered
			if js.FinishedNs != 0 {
				j.finished = time.Unix(0, js.FinishedNs)
			}
			close(j.done)
			j.events.add(JobEvent{Type: EventSettled, Chunk: -1, Status: j.status})
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
			t.queue = append(t.queue, j)
			t.inflight++
			s.st.replayed.Add(1)
		}
		s.jobs[id] = j
		t.jobs = append(t.jobs, id)
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
