// Package trace records the OpenMP runtime's execution events — it
// implements core.Monitor with a bounded in-memory event log plus
// aggregate counters, for debugging parallel structure and for asserting
// construct sequences in tests. Combine it with the virtual-time model via
// Tee to trace and time one run simultaneously. It also defines the task
// fabric's event record, FabricEvent, which the Recorder logs too.
package trace

import (
	"fmt"
	"strings"
	"sync"

	"openmpmca/internal/core"
)

// EventKind classifies a recorded event.
type EventKind int

// Event kinds, mirroring the Monitor callbacks.
const (
	EvFork EventKind = iota
	EvJoin
	EvCharge
	EvBarrier
	EvCriticalEnter
	EvCriticalExit
	EvSingle
	EvReduction
	EvTask
	EvSteal
	EvNestedFork
	EvNestedJoin
	EvCancel
	// EvTaskSend / EvTaskRecv / EvTaskSteal record MTAPI task-fabric
	// traffic (internal/taskfabric): a task descriptor — an irregular
	// task, or one chunk of a parallel-for region — dispatched to a
	// worker domain, a task result accepted by the host, and a queued
	// task migrating from an overloaded domain to an idle one through a
	// host-brokered steal. Each reaches a sink as one FabricEvent.
	EvTaskSend
	EvTaskRecv
	EvTaskSteal
	// EvPeerSteal records a direct domain-to-domain steal over the mesh:
	// the task never passed through the host, which only re-pointed its
	// accounting. Summary counts it among TaskSteals too.
	EvPeerSteal
)

// FabricEvent is the task fabric's one event record, delivered to its
// global sink and to the task's own observer. Kind is EvTaskSend,
// EvTaskRecv, EvTaskSteal or EvPeerSteal. Domain is the executor a task
// was sent to or received from, or a steal's thief; -1 is the host (its
// local executor, or a brokered steal's unknown thief). Victim is the
// domain a steal took the task from, -1 on sends and receives.
type FabricEvent struct {
	Kind   EventKind
	Task   uint64
	Domain int
	Victim int
}

var kindNames = [...]string{
	EvFork:          "fork",
	EvJoin:          "join",
	EvCharge:        "charge",
	EvBarrier:       "barrier",
	EvCriticalEnter: "critical+",
	EvCriticalExit:  "critical-",
	EvSingle:        "single",
	EvReduction:     "reduction",
	EvTask:          "task",
	EvSteal:         "steal",
	EvNestedFork:    "nested-fork",
	EvNestedJoin:    "nested-join",
	EvCancel:        "cancel",
	EvTaskSend:      "task-send",
	EvTaskRecv:      "task-recv",
	EvTaskSteal:     "task-steal",
	EvPeerSteal:     "peer-steal",
}

func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// Event is one recorded runtime event.
type Event struct {
	Kind EventKind
	// Tid is the thread the event belongs to (-1 for team-wide events;
	// the thief for EvSteal, the outer thread for EvNestedFork/Join). For
	// fabric kinds it is the FabricEvent's Domain.
	Tid int
	// Units carries the charge amount or the team size, by kind; for
	// EvSteal it is the victim's thread id, for fabric kinds the task id.
	Units float64
	// Seq is the global sequence number.
	Seq uint64
}

func (e Event) String() string {
	if e.Tid >= 0 {
		return fmt.Sprintf("#%d %s tid=%d units=%g", e.Seq, e.Kind, e.Tid, e.Units)
	}
	return fmt.Sprintf("#%d %s n=%g", e.Seq, e.Kind, e.Units)
}

// Summary aggregates a recording.
type Summary struct {
	Forks, Joins, Barriers, Singles, Reductions uint64
	Criticals                                   uint64
	Tasks, Steals                               uint64
	NestedForks, NestedJoins                    uint64
	Cancels                                     uint64
	TaskSends, TaskRecvs, TaskSteals            uint64 // TaskSteals includes PeerSteals
	PeerSteals                                  uint64
	ChargeEvents                                uint64
	UnitsCharged                                float64
	UnitsByThread                               map[int]float64
	Dropped                                     uint64 // events lost to the ring bound
}

// Recorder is a bounded-ring core.Monitor. The zero value is not usable;
// create one with NewRecorder.
type Recorder struct {
	mu      sync.Mutex
	ring    []Event
	next    int
	full    bool
	seq     uint64
	dropped uint64
	sum     Summary
}

// DefaultCapacity bounds a recorder's ring when 0 is requested.
const DefaultCapacity = 4096

// NewRecorder creates a recorder keeping the last capacity events
// (DefaultCapacity if capacity <= 0). Aggregate counters cover ALL events
// regardless of ring wrap.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Recorder{
		ring: make([]Event, 0, capacity),
		sum:  Summary{UnitsByThread: make(map[int]float64)},
	}
}

func (r *Recorder) record(kind EventKind, tid int, units float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e := Event{Kind: kind, Tid: tid, Units: units, Seq: r.seq}
	r.seq++
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, e)
	} else {
		r.ring[r.next] = e
		r.next = (r.next + 1) % cap(r.ring)
		r.full = true
		r.dropped++
	}
	switch kind {
	case EvFork:
		r.sum.Forks++
	case EvJoin:
		r.sum.Joins++
	case EvBarrier:
		r.sum.Barriers++
	case EvSingle:
		r.sum.Singles++
	case EvReduction:
		r.sum.Reductions++
	case EvCriticalEnter:
		r.sum.Criticals++
	case EvTask:
		r.sum.Tasks++
	case EvSteal:
		r.sum.Steals++
	case EvNestedFork:
		r.sum.NestedForks++
	case EvNestedJoin:
		r.sum.NestedJoins++
	case EvCancel:
		r.sum.Cancels++
	case EvTaskSend:
		r.sum.TaskSends++
	case EvTaskRecv:
		r.sum.TaskRecvs++
	case EvTaskSteal:
		r.sum.TaskSteals++
	case EvPeerSteal:
		r.sum.TaskSteals++
		r.sum.PeerSteals++
	case EvCharge:
		r.sum.ChargeEvents++
		r.sum.UnitsCharged += units
		r.sum.UnitsByThread[tid] += units
	}
}

// Fork implements core.Monitor.
func (r *Recorder) Fork(n int) { r.record(EvFork, -1, float64(n)) }

// Join implements core.Monitor.
func (r *Recorder) Join() { r.record(EvJoin, -1, 0) }

// Charge implements core.Monitor.
func (r *Recorder) Charge(tid int, units float64) { r.record(EvCharge, tid, units) }

// Barrier implements core.Monitor.
func (r *Recorder) Barrier() { r.record(EvBarrier, -1, 0) }

// CriticalEnter implements core.Monitor.
func (r *Recorder) CriticalEnter(tid int) { r.record(EvCriticalEnter, tid, 0) }

// CriticalExit implements core.Monitor.
func (r *Recorder) CriticalExit(tid int) { r.record(EvCriticalExit, tid, 0) }

// Single implements core.Monitor.
func (r *Recorder) Single(tid int) { r.record(EvSingle, tid, 0) }

// Reduction implements core.Monitor.
func (r *Recorder) Reduction(n int) { r.record(EvReduction, -1, float64(n)) }

// Task implements core.Monitor.
func (r *Recorder) Task(tid int) { r.record(EvTask, tid, 0) }

// Steal implements core.Monitor; the thief is the event's thread, the
// victim travels in Units.
func (r *Recorder) Steal(thief, victim int) { r.record(EvSteal, thief, float64(victim)) }

// NestedFork implements core.Monitor.
func (r *Recorder) NestedFork(tid, n int) { r.record(EvNestedFork, tid, float64(n)) }

// NestedJoin implements core.Monitor.
func (r *Recorder) NestedJoin(tid int) { r.record(EvNestedJoin, tid, 0) }

// Cancel implements core.Monitor.
func (r *Recorder) Cancel() { r.record(EvCancel, -1, 0) }

// Event records one task-fabric record (taskfabric.EventSink): the
// domain travels as the event's thread, the task id in Units. A steal's
// victim is not retained.
func (r *Recorder) Event(ev FabricEvent) { r.record(ev.Kind, ev.Domain, float64(ev.Task)) }

var _ core.Monitor = (*Recorder)(nil)

// Events returns the retained events in sequence order.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		return append([]Event(nil), r.ring...)
	}
	out := make([]Event, 0, cap(r.ring))
	out = append(out, r.ring[r.next:]...)
	out = append(out, r.ring[:r.next]...)
	return out
}

// Summary returns the aggregate counters (whole run, not just the ring).
func (r *Recorder) Summary() Summary {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.sum
	s.Dropped = r.dropped
	s.UnitsByThread = make(map[int]float64, len(r.sum.UnitsByThread))
	for k, v := range r.sum.UnitsByThread {
		s.UnitsByThread[k] = v
	}
	return s
}

// Reset clears the recording.
func (r *Recorder) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ring = r.ring[:0]
	r.next = 0
	r.full = false
	r.seq = 0
	r.dropped = 0
	r.sum = Summary{UnitsByThread: make(map[int]float64)}
}

// Render formats the retained events one per line.
func (r *Recorder) Render() string {
	var sb strings.Builder
	for _, e := range r.Events() {
		sb.WriteString(e.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Tee fans Monitor events out to several monitors — e.g. a perfmodel
// Model and a Recorder at once.
type Tee []core.Monitor

// NewTee builds a Tee, skipping nils.
func NewTee(ms ...core.Monitor) Tee {
	var t Tee
	for _, m := range ms {
		if m != nil {
			t = append(t, m)
		}
	}
	return t
}

// Fork implements core.Monitor.
func (t Tee) Fork(n int) {
	for _, m := range t {
		m.Fork(n)
	}
}

// Join implements core.Monitor.
func (t Tee) Join() {
	for _, m := range t {
		m.Join()
	}
}

// Charge implements core.Monitor.
func (t Tee) Charge(tid int, units float64) {
	for _, m := range t {
		m.Charge(tid, units)
	}
}

// Barrier implements core.Monitor.
func (t Tee) Barrier() {
	for _, m := range t {
		m.Barrier()
	}
}

// CriticalEnter implements core.Monitor.
func (t Tee) CriticalEnter(tid int) {
	for _, m := range t {
		m.CriticalEnter(tid)
	}
}

// CriticalExit implements core.Monitor.
func (t Tee) CriticalExit(tid int) {
	for _, m := range t {
		m.CriticalExit(tid)
	}
}

// Single implements core.Monitor.
func (t Tee) Single(tid int) {
	for _, m := range t {
		m.Single(tid)
	}
}

// Reduction implements core.Monitor.
func (t Tee) Reduction(n int) {
	for _, m := range t {
		m.Reduction(n)
	}
}

// Task implements core.Monitor.
func (t Tee) Task(tid int) {
	for _, m := range t {
		m.Task(tid)
	}
}

// Steal implements core.Monitor.
func (t Tee) Steal(thief, victim int) {
	for _, m := range t {
		m.Steal(thief, victim)
	}
}

// NestedFork implements core.Monitor.
func (t Tee) NestedFork(tid, n int) {
	for _, m := range t {
		m.NestedFork(tid, n)
	}
}

// NestedJoin implements core.Monitor.
func (t Tee) NestedJoin(tid int) {
	for _, m := range t {
		m.NestedJoin(tid)
	}
}

// Cancel implements core.Monitor.
func (t Tee) Cancel() {
	for _, m := range t {
		m.Cancel()
	}
}

var _ core.Monitor = Tee(nil)
