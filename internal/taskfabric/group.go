package taskfabric

import (
	"errors"
	"sync"
	"time"

	"openmpmca/internal/oerrors"
)

// Group collects related tasks for collective completion — the host-side
// analogue of mtapi.Group, spanning domains. WaitAny delivers each
// completed task exactly once, which lets a driver expand dynamic task
// graphs (submit children as parents complete); WaitAll settles the
// whole group. Cancel stops whatever has not started: host-pending and
// in-flight tasks settle with ErrCanceled, and worker domains drop the
// group's queued tasks on receipt of a group-done frame.
type Group struct {
	f  *Fabric
	id uint64

	mu       sync.Mutex
	pending  int           // submitted, not yet completed
	all      []*TaskHandle // every member ever submitted
	ready    []*TaskHandle // completed, not yet delivered via WaitAny
	notify   chan struct{} // cap 1: completion signal
	canceled bool
}

// NewGroup creates an empty task group.
func (f *Fabric) NewGroup() *Group {
	return &Group{f: f, id: f.groupSeq.Add(1), notify: make(chan struct{}, 1)}
}

// SubmitJob submits one task into the group.
func (g *Group) SubmitJob(job string, arg []byte) (*TaskHandle, error) {
	return g.f.submit(job, arg, g, nil, nil)
}

// Pending reports members submitted but not yet completed.
func (g *Group) Pending() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.pending
}

// addMember counts h in; a task joins under Fabric.mu as it is placed.
func (g *Group) addMember(h *TaskHandle) {
	g.mu.Lock()
	g.pending++
	g.all = append(g.all, h)
	g.mu.Unlock()
}

// taskDone is called once a member has settled.
func (g *Group) taskDone(h *TaskHandle) {
	g.mu.Lock()
	g.pending--
	g.ready = append(g.ready, h)
	g.mu.Unlock()
	select {
	case g.notify <- struct{}{}:
	default:
	}
}

// WaitAny returns one completed member, each exactly once, under the
// package timeout contract; ErrGroupDrained when no member is
// outstanding or undelivered. The returned handle is already settled —
// its Wait returns immediately.
func (g *Group) WaitAny(timeout time.Duration) (*TaskHandle, error) {
	var timeC <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timeC = t.C
	}
	for {
		g.mu.Lock()
		if len(g.ready) > 0 {
			h := g.ready[0]
			g.ready = g.ready[1:]
			if len(g.ready) > 0 {
				select {
				case g.notify <- struct{}{}:
				default:
				}
			}
			g.mu.Unlock()
			return h, nil
		}
		if g.pending == 0 {
			g.mu.Unlock()
			return nil, ErrGroupDrained
		}
		g.mu.Unlock()
		switch {
		case timeout < 0:
			<-g.notify
		case timeout == 0:
			return nil, ErrTimeout
		default:
			select {
			case <-g.notify:
			case <-timeC:
				return nil, ErrTimeout
			}
		}
	}
}

// WaitAll blocks until every member settles, under the package timeout
// contract. A member's real failure (job error, cancellation, closure)
// is returned as-is; if all members succeeded but some were re-executed
// after a domain died, WaitAll returns an ErrDomainLost-wrapped error —
// results are still complete and correct.
func (g *Group) WaitAll(timeout time.Duration) error {
	var timeC <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timeC = t.C
	}
	for {
		g.mu.Lock()
		if g.pending == 0 {
			members := append([]*TaskHandle(nil), g.all...)
			g.mu.Unlock()
			var recovered bool
			for _, h := range members {
				switch err := h.errOf(); {
				case err == nil:
				case errors.Is(err, ErrDomainLost):
					recovered = true
				default:
					return err
				}
			}
			if recovered {
				return oerrors.Errorf(oerrors.Domain, oerrors.CodeDomainLost,
					"taskfabric: group %d: %w", g.id, ErrDomainLost)
			}
			return nil
		}
		g.mu.Unlock()
		switch {
		case timeout < 0:
			<-g.notify
		case timeout == 0:
			return ErrTimeout
		default:
			select {
			case <-g.notify:
			case <-timeC:
				return ErrTimeout
			}
		}
	}
}

// Cancel settles every not-yet-completed member with ErrCanceled and
// tells worker domains to drop the group's queued tasks. Tasks already
// running on a domain finish there; their results are discarded.
// Idempotent; safe concurrently with waits.
func (g *Group) Cancel() {
	g.mu.Lock()
	if g.canceled {
		g.mu.Unlock()
		return
	}
	g.canceled = true
	g.mu.Unlock()
	g.f.cancel(g)
}
