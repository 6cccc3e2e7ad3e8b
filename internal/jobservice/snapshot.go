package jobservice

import (
	"openmpmca/internal/core"
	"openmpmca/internal/durable"
	"openmpmca/internal/oerrors"
	"openmpmca/internal/taskfabric"
)

// Snapshot is the unified stats umbrella every surface serializes: the
// job service's GET /v1/stats and ompmca-info -stats -json both emit
// this one shape, replacing the divergent ad-hoc dumps that predated
// it. Sections a producer cannot fill are omitted from the JSON rather
// than zeroed, so a consumer can tell "no kernels bound" from "no
// region run yet".
type Snapshot struct {
	Core    *core.StatsSnapshot     `json:"core,omitempty"`    // host runtime scheduler counters
	Offload *taskfabric.RegionStats `json:"offload,omitempty"` // parallel-for region counters
	Fabric  *taskfabric.Stats       `json:"fabric,omitempty"`  // task-fabric counters
	Service *ServiceStats           `json:"service,omitempty"` // job-service admission/dispatch counters
	Errors  *oerrors.CountsSnapshot `json:"errors,omitempty"`  // error-taxonomy counters (by category and code)
	Durable *durable.Stats          `json:"durable,omitempty"` // journal/snapshot activity and replay evidence
}

// ServiceStats is the job service's own section of Snapshot: admission,
// dispatch and settlement counters plus the live queue state, overall
// and per tenant.
type ServiceStats struct {
	Accepted    uint64        `json:"accepted"`               // jobs admitted (202)
	Rejected    uint64        `json:"rejected"`               // jobs refused over quota (429)
	RateLimited uint64        `json:"rate_limited,omitempty"` // jobs refused over token-bucket rate (429)
	Dispatched  uint64        `json:"dispatched"`             // jobs handed to the fabric
	Completed   uint64        `json:"completed"`              // jobs settled with a result
	Failed      uint64        `json:"failed"`                 // jobs settled with an error
	Canceled    uint64        `json:"canceled"`               // jobs canceled before dispatch
	Recovered   uint64        `json:"recovered"`              // completions that survived a domain loss or restart
	Replayed    uint64        `json:"replayed,omitempty"`     // jobs re-enqueued from the durable store at startup
	Queued      int           `json:"queued"`                 // live: admitted, waiting for a slot
	Running     int           `json:"running"`                // live: dispatched, not settled
	Tenants     []TenantStats `json:"tenants"`
}
