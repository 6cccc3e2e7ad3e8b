package openmpmca

import (
	"time"

	"openmpmca/internal/offload"
	"openmpmca/internal/taskfabric"
)

// Multi-domain offload: distribute parallel-for regions across runtime
// domains — separate Runtime instances on their own hypervisor
// partitions — that communicate exclusively over MCAPI. A region is a
// method of the task fabric (TaskFabric.ParallelFor): its chunks run as
// a group of chunk tasks beside the fabric's jobs (see
// internal/taskfabric, region.go), so deadlines, retries, stealing and
// domain-loss recovery are the fabric's. Bind kernels to a fabric with
// JobRegistry.RegisterKernels before building it.
//
// Naming convention: every option that configures NewOffload is named
// WithOffload*; every option that configures NewTaskFabric is named
// WithFabric*. They are one option type underneath.

// Offload is a TaskFabric built by NewOffload to run regions alone.
type Offload = TaskFabric

// OffloadOption configures NewOffload.
type OffloadOption = taskfabric.Option

// OffloadKernel is a distributable parallel-for body: Chunk runs a
// subrange on one domain's runtime, Fold merges partial results in
// chunk order.
type OffloadKernel = offload.Kernel

// OffloadFuncKernel adapts plain funcs into an OffloadKernel.
type OffloadFuncKernel = offload.FuncKernel

// OffloadRegistry maps kernel names to kernels; the host and every
// worker domain resolve chunk descriptors against the same registry.
type OffloadRegistry = offload.Registry

// OffloadStats is a snapshot of the offload counters (RemoteChunks,
// Resends, DomainsLost, ...). It forms the "offload" section of the
// unified Snapshot.
type OffloadStats = taskfabric.RegionStats

// ErrDomainLost marks a region during which a worker domain died; the
// region's result is still complete (its chunks re-ran elsewhere).
var ErrDomainLost = offload.ErrDomainLost

// NewOffloadRegistry creates an empty kernel registry.
func NewOffloadRegistry() *OffloadRegistry { return offload.NewRegistry() }

// NewOffload builds a task fabric that runs regions of reg's kernels and
// nothing else: partitions named offload-*, one MTAPI worker per worker
// domain (default 3), each domain an MCA-backed Runtime wired to the
// host over MCAPI packet channels. A server that already holds a
// TaskFabric runs regions on it instead.
func NewOffload(reg *OffloadRegistry, opts ...OffloadOption) (*Offload, error) {
	return taskfabric.NewOffloader(reg, opts...)
}

// WithOffloadDomains sets the number of worker domains.
func WithOffloadDomains(n int) OffloadOption { return taskfabric.WithDomains(n) }

// WithOffloadHeartbeat sets the region fabric's domain-health ping
// period; a domain missing pongs for eight periods is declared lost.
func WithOffloadHeartbeat(period time.Duration) OffloadOption {
	return taskfabric.WithHeartbeat(period)
}

// WithOffloadEventSink installs a sink for the region fabric's events:
// every chunk surfaces as a task send/recv.
func WithOffloadEventSink(s FabricEventSink) OffloadOption { return taskfabric.WithEventSink(s) }
