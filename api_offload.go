package openmpmca

import (
	"time"

	"openmpmca/internal/offload"
	"openmpmca/internal/taskfabric"
)

// Multi-domain offload: distribute parallel-for regions across runtime
// domains — separate Runtime instances on their own hypervisor
// partitions — that communicate exclusively over MCAPI. A region runs as
// a group of chunk tasks on a private task fabric (see
// internal/taskfabric, region.go), so deadlines, retries, stealing and
// domain-loss recovery are the fabric's.
//
// Naming convention: every option that configures NewOffload is named
// WithOffload*; every option that configures NewTaskFabric is named
// WithFabric*. They are one option type underneath.

// Offload farms ParallelFor regions out to worker domains; see NewOffload.
type Offload = taskfabric.Offloader

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

// NewOffload partitions a simulated board into a host domain plus worker
// domains (default 3), boots an MCA-backed Runtime on each, and wires
// them together over MCAPI packet channels.
func NewOffload(reg *OffloadRegistry, opts ...OffloadOption) (*Offload, error) {
	return taskfabric.NewOffloader(reg, opts...)
}

// WithOffloadDomains sets the number of worker domains.
func WithOffloadDomains(n int) OffloadOption { return taskfabric.WithDomains(n) }

// WithOffloadHeartbeat sets the offloader's domain-health ping period; a
// domain missing pongs for eight periods is declared lost.
func WithOffloadHeartbeat(period time.Duration) OffloadOption {
	return taskfabric.WithHeartbeat(period)
}

// WithOffloadEventSink installs a sink for the region fabric's events:
// every chunk surfaces as a task send/recv.
func WithOffloadEventSink(s FabricEventSink) OffloadOption { return taskfabric.WithEventSink(s) }
