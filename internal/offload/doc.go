// Package offload holds what every multi-domain subsystem shares: the
// kernel registry for parallel-for regions, the hand-rolled wire codec
// for frames that cross a domain boundary, the builder that partitions a
// board into MCAPI-joined runtime domains (BuildNet), and heartbeat
// health tracking (HealthState, MonitorHealth).
//
// It dispatches nothing itself. internal/taskfabric is the one dispatch
// engine: it builds a Net, speaks this codec over it, and runs both
// irregular tasks and — as groups of chunk tasks folded in chunk order on
// the host — the parallel-for regions whose kernels are registered here.
package offload
