package openmpmca

import "openmpmca/internal/taskfabric"

// Task-fabric ablation knobs. Each mechanism defaults to on; the knobs
// exist so cmd/ompmca-bench can measure its contribution against the
// path without it. Production callers leave them alone.

// WithFabricBatching toggles task/result/credit frame coalescing per
// flush (on by default); off restores one packet per frame as an
// ablation baseline for benchmarks.
func WithFabricBatching(on bool) TaskFabricOption { return taskfabric.WithBatching(on) }

// WithFabricPeerStealing toggles the direct domain-to-domain steal mesh
// (on by default): idle domains steal queued tasks straight from the
// most-loaded victim over worker-to-worker MCAPI channels, with the
// host as fallback broker. Off restores the purely host-brokered steal
// path as an ablation baseline — grant-for-grant identical to the
// pre-mesh fabric.
func WithFabricPeerStealing(on bool) TaskFabricOption { return taskfabric.WithPeerStealing(on) }

// WithFabricZeroCopyThreshold sets the payload size (bytes) at or above
// which task arguments and results move through MRAPI remote-memory
// windows instead of inline in MCAPI packets, with frames carrying only
// (owner, offset, length) descriptors (default 4096); n <= 0 disables
// the zero-copy plane entirely.
func WithFabricZeroCopyThreshold(n int) TaskFabricOption { return taskfabric.WithZeroCopyThreshold(n) }
