// Package oerrors is the runtime's error taxonomy: every error the
// public surface returns carries a category (the failure plane it
// belongs to) and a stable string code (the exact failure, safe to key
// dashboards and alerts on). The taxonomy exists so a production
// operator can answer "what is failing, and where" from counters alone
// — the pattern GWD's internal/errors + internal/timesync pair
// established — without parsing message strings that are free to
// change.
//
// The pre-existing sentinel errors (core.ErrClosed, core.ErrSaturated,
// core.ErrCanceled, core.ErrInvalidOption, offload.ErrDomainLost, ...)
// are rebuilt on top of this package with Sentinel, so errors.Is
// identity checks written against them keep working unchanged while
// CategoryOf/CodeOf now classify the same values. Errors constructed
// with Wrap/Errorf are additionally recorded in the package's default
// counter set, which the unified openmpmca.Snapshot and the job
// service's /v1/stats and /v1/health surfaces expose.
package oerrors

import (
	"errors"
	"fmt"
	"time"
)

// Category is the failure plane an error belongs to.
type Category string

// The taxonomy's categories. Every classified error carries exactly
// one.
const (
	// Transport covers the messaging layer: dropped or timed-out
	// frames, full queues, wire-codec trouble.
	Transport Category = "transport"
	// Domain covers worker-domain lifecycle: heartbeat loss, domain
	// death, recovery and re-admission.
	Domain Category = "domain"
	// Admission covers the front door: saturation, quota, validation
	// of options and requests.
	Admission Category = "admission"
	// Cancel covers deliberate teardown: canceled regions and tasks,
	// closed runtimes, fabrics and services.
	Cancel Category = "cancel"
	// Internal covers everything that should not happen: logic errors,
	// unknown jobs, failed kernels.
	Internal Category = "internal"
)

// Categories lists every category in stable order, for surfaces that
// want zero-filled rows.
func Categories() []Category {
	return []Category{Transport, Domain, Admission, Cancel, Internal}
}

// Stable error codes. These are API: they appear in /v1/stats,
// /v1/health and chaos reports, and must not be renamed casually.
const (
	CodeDomainLost    = "domain_lost"      // worker domain declared dead (Domain)
	CodeRuntimeClosed = "runtime_closed"   // core runtime closed (Cancel)
	CodeFabricClosed  = "fabric_closed"    // task fabric closed (Cancel)
	CodeServiceClosed = "service_closed"   // job service closed (Cancel)
	CodeSaturated     = "saturated"        // admission queue full (Admission)
	CodeQuota         = "quota"            // tenant over in-flight quota (Admission)
	CodeInvalidOption = "invalid_option"   // option constructor refused (Admission)
	CodeCanceled      = "canceled"         // parallel region canceled (Cancel)
	CodeTaskCanceled  = "task_canceled"    // task canceled via its group (Cancel)
	CodeTimeout       = "timeout"          // bounded wait expired (Transport)
	CodeGroupDrained  = "group_drained"    // WaitAny on an empty group (Internal)
	CodeUnknownJob    = "unknown_job"      // job/kernel name not registered (Internal)
	CodeJobFailed     = "job_failed"       // job or kernel body returned an error (Internal)
	CodeFrameFault    = "frame_fault"      // injected or detected frame damage (Transport)
	CodeReadmit       = "readmit_conflict" // readmit of a live or contended domain (Domain)
	CodeInternal      = "internal"         // unclassified internal error (Internal)

	// Durable-store codes (internal/durable, the job service's
	// write-ahead journal + snapshot replay).
	CodeJournalCorrupt = "journal_corrupt"  // journal record failed its CRC or framing (Internal)
	CodeSnapshotTorn   = "snapshot_torn"    // snapshot file failed its CRC or framing (Internal)
	CodeStoreClosed    = "store_closed"     // durable store closed (Cancel)
	CodeStoreIO        = "store_io"         // state-dir I/O failure: open, append, fsync, rename (Internal)
	CodeRateLimited    = "rate_limited"     // tenant over its token-bucket rate (Admission)
	CodeTenantGone     = "tenant_gone"      // replayed job's tenant no longer configured (Admission)
	CodeBodyTooLarge   = "body_too_large"   // submit body over the size one task frame may carry (Admission)
	CodeRegionTooLarge = "region_too_large" // parallel-for iteration count over the region cap (Admission)
)

// E is one classified error: a category, a stable code, a message and
// an optional wrapped cause. It is the errors.As target for
// classification; use CategoryOf/CodeOf for the common queries.
type E struct {
	Cat  Category
	Code string
	msg  string
	err  error
}

// Error implements error.
func (e *E) Error() string {
	if e.err != nil && e.msg == "" {
		return e.err.Error()
	}
	return e.msg
}

// Unwrap exposes the wrapped cause, keeping errors.Is chains intact.
func (e *E) Unwrap() error { return e.err }

// Sentinel builds a classified sentinel error — a stable value meant to
// be compared by identity with errors.Is, exactly like errors.New, but
// carrying a category and code. Sentinels are constructed once at init
// and are NOT recorded in the counters; the wraps built around them
// are.
func Sentinel(cat Category, code, msg string) error {
	return &E{Cat: cat, Code: code, msg: msg}
}

// New builds and records a classified leaf error.
func New(cat Category, code, msg string) error {
	e := &E{Cat: cat, Code: code, msg: msg}
	Default.record(cat, code)
	return e
}

// Wrap classifies an existing error, recording one occurrence. The
// wrapped chain stays visible to errors.Is/errors.As. Wrapping nil
// returns nil.
func Wrap(cat Category, code string, err error) error {
	if err == nil {
		return nil
	}
	e := &E{Cat: cat, Code: code, err: err}
	Default.record(cat, code)
	return e
}

// Errorf is fmt.Errorf with classification and recording: %w operands
// stay unwrappable underneath the returned *E.
func Errorf(cat Category, code string, format string, args ...any) error {
	inner := fmt.Errorf(format, args...)
	e := &E{Cat: cat, Code: code, msg: inner.Error(), err: errors.Unwrap(inner)}
	if e.err == nil {
		// Multiple %w operands: keep the full join via the fmt error.
		if _, ok := inner.(interface{ Unwrap() []error }); ok {
			e.err = inner
		}
	}
	Default.record(cat, code)
	return e
}

// DomainLost is the one constructor both offload and taskfabric build
// heartbeat-loss errors with, so the two subsystems surface the same
// shape: subsystem, domain id and name, the silence (time since the
// last pong) that triggered the loss verdict, and a per-subsystem
// detail. The returned error matches the passed sentinel under
// errors.Is and classifies as Domain/CodeDomainLost.
func DomainLost(sentinel error, subsystem string, domainID int, domainName string, silence time.Duration, detail string) error {
	return Errorf(Domain, CodeDomainLost,
		"%s: domain %d (%s) lost after %v without a pong: %s: %w",
		subsystem, domainID, domainName, silence.Round(time.Millisecond), detail, sentinel)
}

// CategoryOf reports the category of the outermost classified error in
// err's chain, or false when the chain carries no classification.
func CategoryOf(err error) (Category, bool) {
	var e *E
	if errors.As(err, &e) {
		return e.Cat, true
	}
	return "", false
}

// CodeOf reports the stable code of the outermost classified error in
// err's chain, or false when the chain carries no classification.
func CodeOf(err error) (string, bool) {
	var e *E
	if errors.As(err, &e) {
		return e.Code, true
	}
	return "", false
}
