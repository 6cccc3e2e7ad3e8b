package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"openmpmca"
	"openmpmca/internal/durable"
	"openmpmca/internal/jobservice"
)

// The server under test is wired exactly like cmd/ompmca-serve's
// defaults. These are constants, not flags: the benchmark measures one
// configuration, the one a user gets.
const (
	fabricDomains  = 3
	offloadDomains = 2
	heartbeat      = 25 * time.Millisecond
	dispatchWindow = 64
	tenantQuota    = 1024
)

// stack is one in-process ompmca-serve: fabric + offloader + job service
// behind a real loopback TCP listener.
type stack struct {
	jobs    *openmpmca.JobRegistry
	kernels *openmpmca.OffloadRegistry
	fab     *openmpmca.TaskFabric
	off     *openmpmca.Offload
	svc     *openmpmca.JobService
	hs      *http.Server
	served  chan error
	base    string // http://127.0.0.1:port
	tenants []openmpmca.Tenant
}

// benchTenants gives every client its own tenant: quota 1024, normal
// priority, no rate limit, so admission never refuses a closed loop.
func benchTenants(clients int) []openmpmca.Tenant {
	ts := make([]openmpmca.Tenant, clients)
	for i := range ts {
		ts[i] = openmpmca.Tenant{
			Name:     fmt.Sprintf("client%d", i),
			Key:      fmt.Sprintf("key-client%d", i),
			Quota:    tenantQuota,
			Priority: openmpmca.ServicePriorityNormal,
		}
	}
	return ts
}

// newStack boots the server; stateDir "" keeps it in memory. flush says
// whether the journal in stateDir fsyncs (the service's default) or leaves
// its records to the page cache.
func newStack(clients int, stateDir string, flush bool) (*stack, error) {
	st := &stack{tenants: benchTenants(clients)}
	ok := false
	defer func() {
		if !ok {
			st.Close()
		}
	}()

	st.jobs = openmpmca.NewJobRegistry()
	if err := jobservice.RegisterBuiltinJobs(st.jobs); err != nil {
		return nil, err
	}
	sp := openmpmca.NewSpanExporter(0)
	hub := openmpmca.NewServiceProgressHub(sp)
	var err error
	st.fab, err = openmpmca.NewTaskFabric(st.jobs,
		openmpmca.WithFabricDomains(fabricDomains),
		openmpmca.WithFabricHeartbeat(heartbeat),
		openmpmca.WithFabricEventSink(hub),
	)
	if err != nil {
		return nil, fmt.Errorf("fabric: %w", err)
	}
	st.kernels = openmpmca.NewOffloadRegistry()
	if err := jobservice.RegisterBuiltinKernels(st.kernels); err != nil {
		return nil, err
	}
	st.off, err = openmpmca.NewOffload(st.kernels,
		openmpmca.WithOffloadDomains(offloadDomains),
		openmpmca.WithOffloadHeartbeat(heartbeat),
		openmpmca.WithOffloadEventSink(sp),
	)
	if err != nil {
		return nil, fmt.Errorf("offload: %w", err)
	}
	opts := []openmpmca.JobServiceOption{
		openmpmca.WithServiceTenants(st.tenants...),
		openmpmca.WithServiceDispatchWindow(dispatchWindow),
		openmpmca.WithServiceSpans(sp),
		openmpmca.WithServiceProgress(hub),
		openmpmca.WithServiceOffloader(st.off, st.kernels),
	}
	if stateDir != "" {
		opts = append(opts, jobservice.WithStateDir(stateDir, durable.WithFsync(flush)))
	}
	st.svc, err = openmpmca.NewJobService(st.fab, st.jobs, opts...)
	if err != nil {
		return nil, fmt.Errorf("job service: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.hs = &http.Server{Handler: st.svc}
	st.served = make(chan error, 1)
	go func() { st.served <- st.hs.Serve(ln) }()
	st.base = "http://" + ln.Addr().String()
	ok = true
	return st, nil
}

// Close tears the stack down outermost first and returns once every
// goroutine it started has been asked to stop and the listener's accept
// loop has returned.
func (st *stack) Close() error {
	var errs []error
	if st.hs != nil {
		errs = append(errs, st.hs.Close())
		if err := <-st.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if st.svc != nil {
		errs = append(errs, st.svc.Close())
	}
	if st.off != nil {
		errs = append(errs, st.off.Close())
	}
	if st.fab != nil {
		errs = append(errs, st.fab.Close())
	}
	return errors.Join(errs...)
}
