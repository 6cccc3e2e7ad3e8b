package openmpmca

import (
	"errors"
	"fmt"
	"testing"

	"openmpmca/internal/oerrors"
)

// TestSentinelTaxonomyParity pins the rewrap contract for every public
// sentinel across all four facade families (New, NewOffload,
// NewTaskFabric, NewJobService): errors.Is still matches the sentinel
// bare and through fmt.Errorf wrapping, errors.As extracts the
// classified error, and the category/code pair is stable.
func TestSentinelTaxonomyParity(t *testing.T) {
	cases := []struct {
		name string
		err  error
		cat  ErrorCategory
		code string
	}{
		{"core/ErrClosed", ErrClosed, ErrorCancel, "runtime_closed"},
		{"core/ErrSaturated", ErrSaturated, ErrorAdmission, "saturated"},
		{"core/ErrCanceled", ErrCanceled, ErrorCancel, "canceled"},
		{"core/ErrInvalidOption", ErrInvalidOption, ErrorAdmission, "invalid_option"},
		{"offload/ErrDomainLost", ErrDomainLost, ErrorDomain, "domain_lost"},
		{"fabric/ErrFabricClosed", ErrFabricClosed, ErrorCancel, "fabric_closed"},
		{"fabric/ErrTaskCanceled", ErrTaskCanceled, ErrorCancel, "task_canceled"},
		{"fabric/ErrGroupDrained", ErrGroupDrained, ErrorInternal, "group_drained"},
		{"service/ErrServiceClosed", ErrServiceClosed, ErrorCancel, "service_closed"},
	}
	for _, tc := range cases {
		wraps := []struct {
			name string
			err  error
		}{
			{"bare", tc.err},
			{"wrapped", fmt.Errorf("context: %w", tc.err)},
			{"double-wrapped", fmt.Errorf("outer: %w", fmt.Errorf("inner: %w", tc.err))},
		}
		for _, w := range wraps {
			name := tc.name + "/" + w.name
			if !errors.Is(w.err, tc.err) {
				t.Errorf("%s: errors.Is lost the sentinel", name)
			}
			var e *oerrors.E
			if !errors.As(w.err, &e) {
				t.Errorf("%s: errors.As found no classified error in %v", name, w.err)
				continue
			}
			if e.Cat != tc.cat || e.Code != tc.code {
				t.Errorf("%s: classified %s/%s, want %s/%s", name, e.Cat, e.Code, tc.cat, tc.code)
			}
			if cat, ok := ErrorCategoryOf(w.err); !ok || cat != tc.cat {
				t.Errorf("%s: ErrorCategoryOf = %v/%v, want %s", name, cat, ok, tc.cat)
			}
			if code, ok := ErrorCodeOf(w.err); !ok || code != tc.code {
				t.Errorf("%s: ErrorCodeOf = %v/%v, want %s", name, code, ok, tc.code)
			}
		}
	}
}

// TestClosedErrorsClassifiedAcrossConstructors provokes a live
// post-Close error from each facade constructor's product and asserts
// the surfaced value still matches its sentinel AND carries the
// taxonomy code — the rewrap must hold on real error paths, not just on
// the sentinels themselves.
func TestClosedErrorsClassifiedAcrossConstructors(t *testing.T) {
	check := func(name string, err, sentinel error, code string) {
		t.Helper()
		if err == nil {
			t.Errorf("%s: operation on closed value returned nil", name)
			return
		}
		if !errors.Is(err, sentinel) {
			t.Errorf("%s: err = %v, want its closed sentinel", name, err)
		}
		if got, ok := ErrorCodeOf(err); !ok || got != code {
			t.Errorf("%s: code = %q/%v, want %q", name, got, ok, code)
		}
	}

	rt, err := New(WithLayer(NewNativeLayer(4)), WithNumThreads(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	check("New", rt.Parallel(func(c *Context) {}), ErrClosed, "runtime_closed")

	off, err := NewOffload(NewOffloadRegistry(), WithOffloadDomains(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := off.Close(); err != nil {
		t.Fatal(err)
	}
	_, perr := off.ParallelFor("any", 8, nil)
	check("NewOffload", perr, ErrFabricClosed, "fabric_closed")

	jobs := NewJobRegistry()
	fab, err := NewTaskFabric(jobs, WithFabricDomains(2))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewJobService(fab, jobs,
		WithServiceTenants(Tenant{Name: "t", Key: "k", Quota: 1, Priority: ServicePriorityNormal}))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if h := srv.Health(); h.Status != "down" {
		t.Errorf("NewJobService: closed Health().Status = %q, want down", h.Status)
	}
	check("NewJobService sentinel", fmt.Errorf("settle: %w", ErrServiceClosed), ErrServiceClosed, "service_closed")

	if err := fab.Close(); err != nil {
		t.Fatal(err)
	}
	_, serr := fab.SubmitJob("any", nil)
	check("NewTaskFabric", serr, ErrFabricClosed, "fabric_closed")
}
