package openmpmca

import (
	"time"

	"openmpmca/internal/durable"
	"openmpmca/internal/jobservice"
	"openmpmca/internal/trace"
)

// Multi-tenant job service: a persistent HTTP/JSON front end over one
// TaskFabric — jobs, and parallel-for regions when kernels are bound to
// its JobRegistry — with API-key tenants, quotas, priority classes and
// weighted-fair dispatch. See internal/jobservice for the architecture
// and cmd/ompmca-serve for a ready-to-run server.

// JobService is the HTTP job service; it implements http.Handler. See
// NewJobService.
type JobService = jobservice.Server

// JobServiceOption configures NewJobService.
type JobServiceOption = jobservice.Option

// Tenant is one API-key principal of a JobService: a name, a secret
// key, an in-flight quota and a priority class (plus the optional admin
// role unlocking domain drain/readmit).
type Tenant = jobservice.Tenant

// ServicePriority is a tenant's service class; it maps to a
// weighted-fair dispatch weight.
type ServicePriority = jobservice.Priority

// Tenant service classes (dispatch weights 4, 2 and 1).
const (
	ServicePriorityHigh   = jobservice.PriorityHigh
	ServicePriorityNormal = jobservice.PriorityNormal
	ServicePriorityLow    = jobservice.PriorityLow
)

// Snapshot is the unified stats umbrella: core runtime, offload, fabric
// and job-service counters in one JSON-taggable shape. GET /v1/stats and
// ompmca-info -stats both serialize this type.
type Snapshot = jobservice.Snapshot

// ServiceStats is the job service's section of Snapshot.
type ServiceStats = jobservice.ServiceStats

// TenantStats is one tenant's slice of ServiceStats.
type TenantStats = jobservice.TenantStats

// DurableStats is the durable job store's section of Snapshot: journal
// generation and size, fsync/snapshot counters, and what the last
// recovery replayed. Present only when the service runs with a state
// dir (WithServiceStateDir).
type DurableStats = durable.Stats

// JobEvent is one line of a job's progress stream
// (GET /v1/jobs/{id}/events): lifecycle transitions, per-chunk
// completions of parallel-for regions, and fabric task sent/done/stolen
// events, each stamped with a per-job sequence number. Every job has
// one: a job's task carries its own observer into the fabric.
type JobEvent = jobservice.JobEvent

// ServiceProgressHub forwards fabric events to the sink it wraps.
//
// Deprecated: per-job progress is always on, so the hub attributes
// nothing. Install the wrapped sink with WithFabricEventSink directly.
type ServiceProgressHub struct{ next FabricEventSink }

// NewServiceProgressHub wraps next, which may be nil.
//
// Deprecated: see ServiceProgressHub.
func NewServiceProgressHub(next FabricEventSink) *ServiceProgressHub {
	return &ServiceProgressHub{next}
}

// Event forwards ev to the wrapped sink.
func (h *ServiceProgressHub) Event(ev trace.FabricEvent) {
	if h.next != nil {
		h.next.Event(ev)
	}
}

// ErrServiceClosed is returned by operations on a closed JobService.
var ErrServiceClosed = jobservice.ErrClosed

// NewJobService builds a job service over a fabric and its job registry.
// At least one tenant (WithServiceTenants) is required. Parallel-for
// jobs run on fab when kernels are bound to jobs
// (JobRegistry.RegisterKernels).
// Serve it with net/http and stop it with Close:
//
//	svc, err := openmpmca.NewJobService(fab, jobs,
//		openmpmca.WithServiceTenants(openmpmca.Tenant{
//			Name: "alice", Key: "s3cret", Quota: 16,
//			Priority: openmpmca.ServicePriorityNormal,
//		}))
//	http.ListenAndServe(":8080", svc)
func NewJobService(fab *TaskFabric, jobs *JobRegistry, opts ...JobServiceOption) (*JobService, error) {
	return jobservice.New(fab, jobs, opts...)
}

// WithServiceTenants registers the service's tenants.
func WithServiceTenants(ts ...Tenant) JobServiceOption { return jobservice.WithTenants(ts...) }

// WithServiceOffloader sends parallel-for jobs to a separate region
// fabric built by NewOffload over kernels, instead of the service's own.
func WithServiceOffloader(o *Offload, kernels *OffloadRegistry) JobServiceOption {
	return jobservice.WithOffloader(o, kernels)
}

// WithServiceDispatchWindow bounds how many jobs may be inside the
// fabric at once (default 64).
func WithServiceDispatchWindow(n int) JobServiceOption { return jobservice.WithDispatchWindow(n) }

// WithServiceRetryAfter sets the Retry-After hint on HTTP 429 responses
// (default 1s).
func WithServiceRetryAfter(d time.Duration) JobServiceOption { return jobservice.WithRetryAfter(d) }

// WithServiceStateDir makes the service durable: every job-state
// transition is journaled to an append-only, CRC-framed write-ahead log
// under dir (fsynced before the submit 202), periodically compacted
// into snapshots, and replayed at the next startup — settled jobs come
// back with their byte-exact results, unsettled jobs are re-enqueued
// and re-executed. Without this option the service is in-memory only.
func WithServiceStateDir(dir string) JobServiceOption { return jobservice.WithStateDir(dir) }

// WithServiceProgress does nothing: it adds no tenants, and per-job
// progress is always on.
//
// Deprecated: drop the option.
func WithServiceProgress(*ServiceProgressHub) JobServiceOption { return jobservice.WithTenants() }

// LoadTenantsFile reads tenants from a keys file: one
// "name:key:quota:priority[:admin][:rate=R/B]" spec per line, blank
// lines and #-comments ignored. The file holds API keys, so any mode
// looser than 0600 is refused.
func LoadTenantsFile(path string) ([]Tenant, error) { return jobservice.LoadTenantsFile(path) }
