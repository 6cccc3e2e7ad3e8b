package openmpmca

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestPublicAPIRoundTrip drives the facade end to end: construction,
// worksharing, stats, and close — without touching internal/ directly.
func TestPublicAPIRoundTrip(t *testing.T) {
	rt, err := New(
		WithLayer(NewNativeLayer(8)),
		WithNumThreads(4),
		WithSchedule(ScheduleDynamic, 16),
		WithBarrierKind(BarrierTree),
		WithTaskQueue(TaskQueueSteal),
		WithMaxConcurrentRegions(8),
		WithTeamLeasing(true),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	out := make([]int, 1000)
	if err := rt.ParallelFor(len(out), func(i int) { out[i] = i * i }); err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}

	var sum int
	if err := rt.Parallel(func(c *Context) {
		total := Reduce(c, len(out), 0, func(a, b int) int { return a + b },
			func(lo, hi int) int {
				s := 0
				for i := lo; i < hi; i++ {
					s += out[i]
				}
				return s
			})
		c.Master(func() { sum = total })
	}); err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, v := range out {
		want += v
	}
	if sum != want {
		t.Fatalf("reduction = %d, want %d", sum, want)
	}

	st := rt.Stats().Snapshot()
	if st.Regions != 2 {
		t.Errorf("Regions = %d, want 2", st.Regions)
	}
}

func TestPublicErrorTaxonomy(t *testing.T) {
	// ErrInvalidOption from New.
	if _, err := New(WithNumThreads(-3)); !errors.Is(err, ErrInvalidOption) {
		t.Errorf("New(WithNumThreads(-3)) = %v, want ErrInvalidOption", err)
	}
	if _, err := New(WithMaxConcurrentRegions(-1)); !errors.Is(err, ErrInvalidOption) {
		t.Errorf("New(WithMaxConcurrentRegions(-1)) = %v, want ErrInvalidOption", err)
	}

	rt, err := New(WithLayer(NewNativeLayer(4)), WithNumThreads(2))
	if err != nil {
		t.Fatal(err)
	}

	// RegionPanicError via errors.As; cause via errors.Is.
	cause := errors.New("kaboom")
	err = rt.Parallel(func(c *Context) {
		if c.ThreadNum() == 0 {
			panic(cause)
		}
	})
	var rpe *RegionPanicError
	if !errors.As(err, &rpe) {
		t.Fatalf("panic region = %v, want RegionPanicError", err)
	}
	if !errors.Is(err, cause) {
		t.Error("RegionPanicError does not unwrap to its error cause")
	}

	// ErrCanceled wrapping the ctx error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = rt.ParallelCtx(ctx, func(c *Context) {})
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Errorf("pre-canceled ParallelCtx = %v, want ErrCanceled ∧ context.Canceled", err)
	}

	// ErrClosed after Close.
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Parallel(func(c *Context) {}); !errors.Is(err, ErrClosed) {
		t.Errorf("Parallel after Close = %v, want ErrClosed", err)
	}
}

// TestOptionValidationParity pins the facade-wide error contract: every
// constructor — New, NewOffload, NewTaskFabric, NewJobService — rejects
// a nonsense option with an error matching ErrInvalidOption, so callers
// need exactly one errors.Is branch regardless of which layer they are
// configuring.
func TestOptionValidationParity(t *testing.T) {
	cases := []struct {
		name string
		run  func() error
	}{
		{"core threads", func() error { _, err := New(WithNumThreads(-1)); return err }},
		{"offload nil registry", func() error { _, err := NewOffload(nil); return err }},
		{"offload domains", func() error {
			_, err := NewOffload(NewOffloadRegistry(), WithOffloadDomains(0))
			return err
		}},
		{"offload heartbeat", func() error {
			_, err := NewOffload(NewOffloadRegistry(), WithOffloadHeartbeat(-time.Second))
			return err
		}},
		{"fabric nil registry", func() error { _, err := NewTaskFabric(nil); return err }},
		{"fabric domains", func() error {
			_, err := NewTaskFabric(NewJobRegistry(), WithFabricDomains(-2))
			return err
		}},
		{"service nil fabric", func() error {
			_, err := NewJobService(nil, NewJobRegistry(),
				WithServiceTenants(Tenant{Name: "t", Key: "k", Quota: 1, Priority: ServicePriorityNormal}))
			return err
		}},
		{"service no tenants", func() error {
			jobs := NewJobRegistry()
			fab, err := NewTaskFabric(jobs, WithFabricDomains(2))
			if err != nil {
				return err
			}
			defer fab.Close()
			_, err = NewJobService(fab, jobs)
			return err
		}},
		{"service bad quota", func() error {
			jobs := NewJobRegistry()
			fab, err := NewTaskFabric(jobs, WithFabricDomains(2))
			if err != nil {
				return err
			}
			defer fab.Close()
			_, err = NewJobService(fab, jobs,
				WithServiceTenants(Tenant{Name: "t", Key: "k", Quota: 0, Priority: ServicePriorityNormal}))
			return err
		}},
	}
	for _, tc := range cases {
		if err := tc.run(); !errors.Is(err, ErrInvalidOption) {
			t.Errorf("%s: err = %v, want ErrInvalidOption", tc.name, err)
		}
	}
}

func TestPublicSaturation(t *testing.T) {
	rt, err := New(WithLayer(NewNativeLayer(4)), WithNumThreads(2), WithMaxConcurrentRegions(1))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	hold := make(chan struct{})
	inside := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- rt.Parallel(func(c *Context) {
			c.Master(func() { close(inside); <-hold })
		})
	}()
	<-inside

	// The slot is held; a deadline'd caller queues, then gives up.
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if err := rt.ParallelCtx(ctx, func(c *Context) {}); !errors.Is(err, ErrCanceled) {
		t.Errorf("queued caller past deadline = %v, want ErrCanceled", err)
	}
	close(hold)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
