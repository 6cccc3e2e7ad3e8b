package openmpmca

import (
	"openmpmca/internal/jobservice"
	"openmpmca/internal/oerrors"
	"openmpmca/internal/trace"
)

// Observability surface: the error taxonomy (internal/oerrors). Every
// error the public API returns carries a stable category and code;
// ErrorCategoryOf/ErrorCodeOf read them and ErrorCounts exposes the
// process-wide counters the job service serves at /v1/stats and
// /v1/health.

// ErrorCategory is the failure plane an error belongs to.
type ErrorCategory = oerrors.Category

// The taxonomy's categories.
const (
	ErrorTransport = oerrors.Transport // messaging-layer failures
	ErrorDomain    = oerrors.Domain    // worker-domain lifecycle (loss, readmit)
	ErrorAdmission = oerrors.Admission // saturation, quota, option validation
	ErrorCancel    = oerrors.Cancel    // deliberate teardown (cancel, close)
	ErrorInternal  = oerrors.Internal  // unknown jobs, failed kernels, logic errors
)

// ErrorCategories lists every category in stable order.
func ErrorCategories() []ErrorCategory { return oerrors.Categories() }

// ErrorCategoryOf reports the category of the outermost classified
// error in err's chain, or false when err carries no classification.
func ErrorCategoryOf(err error) (ErrorCategory, bool) { return oerrors.CategoryOf(err) }

// ErrorCodeOf reports the stable string code (e.g. "domain_lost",
// "saturated") of the outermost classified error in err's chain, or
// false when err carries no classification.
func ErrorCodeOf(err error) (string, bool) { return oerrors.CodeOf(err) }

// ErrorStats is a snapshot of the process-wide error-taxonomy counters:
// total plus per-category and per-code occurrence counts.
type ErrorStats = oerrors.CountsSnapshot

// ErrorCounts snapshots the process-wide error-taxonomy counters — the
// same numbers the job service's /v1/stats "errors" section and
// /v1/health report.
func ErrorCounts() ErrorStats { return oerrors.Counts() }

// SpanExporter discards the fabric events it receives.
//
// Deprecated: the job service folds each settled job's event log into
// the latency histograms of its Snapshot (GET /v1/stats), and serves a
// job's events at GET /v1/jobs/{id}/events; nothing reads an exporter.
type SpanExporter struct{}

// NewSpanExporter returns an exporter; capacity is ignored.
//
// Deprecated: see SpanExporter.
func NewSpanExporter(capacity int) *SpanExporter { return &SpanExporter{} }

// Event discards ev.
func (*SpanExporter) Event(trace.FabricEvent) {}

// WithServiceSpans does nothing: it adds no tenants.
//
// Deprecated: drop the option; see SpanExporter.
func WithServiceSpans(*SpanExporter) JobServiceOption { return jobservice.WithTenants() }
