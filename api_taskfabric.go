package openmpmca

import (
	"time"

	"openmpmca/internal/taskfabric"
)

// MTAPI task fabric: distribute irregular tasks across runtime domains —
// separate Runtime instances on their own hypervisor partitions, each
// running a local MTAPI scheduler — joined only by MCAPI packet
// channels, with direct domain-to-domain work stealing over a peer
// mesh. See internal/taskfabric for the architecture.

// TaskFabric executes jobs submitted by name across worker domains; see
// NewTaskFabric.
type TaskFabric = taskfabric.Fabric

// TaskFabricOption configures NewTaskFabric.
type TaskFabricOption = taskfabric.Option

// FabricJob is distributable work: Execute runs on the scheduled
// domain's runtime, with the argument and result as opaque bytes.
type FabricJob = taskfabric.Job

// FabricFuncJob adapts plain funcs into a FabricJob.
type FabricFuncJob = taskfabric.FuncJob

// JobRegistry maps job names to implementations; the host and every
// worker domain resolve task frames against the same registry.
type JobRegistry = taskfabric.Registry

// FabricTask tracks one submitted task; Wait follows the mtapi timeout
// contract (negative forever, zero polls once, positive bounded).
type FabricTask = taskfabric.TaskHandle

// FabricGroup collects tasks for collective completion across domains:
// WaitAny delivers each completion exactly once, WaitAll settles the
// group, Cancel drops what has not started.
type FabricGroup = taskfabric.Group

// FabricStats is a snapshot of the fabric counters (RemoteTasks, Steals,
// DomainsLost, ...). It forms the "fabric" section of the unified
// Snapshot.
type FabricStats = taskfabric.Stats

// FabricDomainInfo describes one fabric worker domain for introspection:
// identity, liveness, outstanding tasks and the adaptive per-task
// service estimate.
type FabricDomainInfo = taskfabric.DomainInfo

// FabricEventSink receives the fabric's event records through one
// method: every task send, receive and steal (direct mesh steals
// included), each once. A SpanExporter satisfies it.
type FabricEventSink = taskfabric.EventSink

var (
	// ErrFabricClosed is returned by operations on a closed TaskFabric.
	ErrFabricClosed = taskfabric.ErrClosed
	// ErrTaskCanceled marks tasks canceled via FabricGroup.Cancel.
	ErrTaskCanceled = taskfabric.ErrCanceled
	// ErrGroupDrained is returned by WaitAny when a group has no
	// outstanding or undelivered tasks.
	ErrGroupDrained = taskfabric.ErrGroupDrained
)

// NewJobRegistry creates an empty job registry.
func NewJobRegistry() *JobRegistry { return taskfabric.NewRegistry() }

// NewTaskFabric partitions a simulated board into a host domain plus
// worker domains (default 3), boots an MCA-backed Runtime and an MTAPI
// scheduler on each worker, and wires them together over MCAPI packet
// channels. A domain that dies mid-graph is detected by heartbeat loss
// and its tasks re-execute on the host — completed graphs surface the
// loss as an ErrDomainLost-wrapped error alongside full results.
func NewTaskFabric(reg *JobRegistry, opts ...TaskFabricOption) (*TaskFabric, error) {
	return taskfabric.NewFabric(reg, opts...)
}

// WithFabricDomains sets the number of worker domains.
func WithFabricDomains(n int) TaskFabricOption { return taskfabric.WithDomains(n) }

// WithFabricEventSink installs a sink for task-fabric trace events.
func WithFabricEventSink(s FabricEventSink) TaskFabricOption { return taskfabric.WithEventSink(s) }

// WithFabricHeartbeat sets the fabric's domain-health ping period; a
// domain missing pongs for eight periods is declared lost.
func WithFabricHeartbeat(period time.Duration) TaskFabricOption {
	return taskfabric.WithHeartbeat(period)
}
