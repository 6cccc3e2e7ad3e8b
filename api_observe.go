package openmpmca

import (
	"openmpmca/internal/jobservice"
	"openmpmca/internal/oerrors"
	"openmpmca/internal/spans"
)

// Observability surface: the error taxonomy (internal/oerrors) and the
// span exporter (internal/spans). Every error the public API returns
// carries a stable category and code; ErrorCategoryOf/ErrorCodeOf read
// them and ErrorCounts exposes the process-wide counters the job
// service serves at /v1/stats and /v1/health.

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

// Span is one folded task lifetime: a fabric task (an offloaded chunk
// is one), from first dispatch to settled result, with retry and
// loss-recovery annotations.
type Span = spans.Span

// SpanStats aggregates a span exporter's whole run.
type SpanStats = spans.Stats

// SpanView is a span exporter snapshot: retained completed spans, open
// spans and aggregates — the GET /v1/spans body.
type SpanView = spans.View

// SpanExporter folds the fabric's task events into lifetime spans. It is
// a FabricEventSink, so one exporter can observe the task fabric and an
// offloader at once:
//
//	sp := openmpmca.NewSpanExporter(0)
//	fab, _ := openmpmca.NewTaskFabric(jobs, openmpmca.WithFabricEventSink(sp))
//	... run work ...
//	view := sp.Snapshot() // or serve it: WithServiceSpans(sp)
type SpanExporter = spans.Exporter

// NewSpanExporter creates a span exporter retaining the last capacity
// completed spans (a default bound if capacity <= 0).
func NewSpanExporter(capacity int) *SpanExporter { return spans.NewExporter(capacity) }

// WithServiceSpans serves a span exporter's folded lifetimes at the job
// service's GET /v1/spans. Wire the same exporter into the fabric
// and/or offloader as their event sink; the service only reads it.
func WithServiceSpans(x *SpanExporter) JobServiceOption { return jobservice.WithSpans(x) }
