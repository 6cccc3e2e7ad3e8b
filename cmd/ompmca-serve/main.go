// Command ompmca-serve boots the multi-tenant job service: a simulated
// T4240RDB board partitioned into a host plus worker domains, one MTAPI
// task fabric that runs both jobs and parallel_for regions (the vecsum
// kernel is bound to its job registry), and the HTTP/JSON front end of
// internal/jobservice on top — turning the one-shot demo binaries into a
// persistent daemon tenants share. GET /v1/jobs/{id}/events follows one
// job's lifecycle, task and chunk events; GET /v1/stats carries, beside
// every layer's counters, the settled jobs' latency histograms (queue,
// dispatch, remote execution, completion, region).
//
//	ompmca-serve -addr :8080 -domains 3
//	ompmca-serve -state-dir /var/lib/ompmca        # survive restarts
//	ompmca-serve -tls-cert c.pem -tls-key k.pem    # serve HTTPS
//	ompmca-serve -tenants-file /etc/ompmca/tenants # keys from a 0600 file
//
// With -state-dir the service journals every job-state transition to a
// write-ahead log and replays it at startup: a crash or restart loses
// nothing — settled jobs keep their byte-exact results, unsettled jobs
// re-execute.
//
// With no -tenant flags (and no -tenants-file) the demo tenants are
// installed (alice: admin, high priority; bob: normal; carol: low) and
// printed at startup. The built-in demo jobs (sum, fib, echo, spin) and
// the vecsum parallel-for kernel are always registered:
//
//	curl -s -H 'X-API-Key: key-bob' -d '{"job":"fib","arg":"AAAAAAAAACg="}' \
//	    localhost:8080/v1/jobs
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"openmpmca"
	"openmpmca/internal/jobservice"
)

// tenantFlags collects repeated -tenant specs.
type tenantFlags []openmpmca.Tenant

func (f *tenantFlags) String() string { return fmt.Sprintf("%d tenants", len(*f)) }

func (f *tenantFlags) Set(spec string) error {
	t, err := jobservice.ParseTenant(spec)
	if err != nil {
		return err
	}
	*f = append(*f, t)
	return nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("ompmca-serve: ")
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run serves until ctx is done, then shuts the HTTP server down and
// returns nil. The readiness line goes to stdout, logs to the standard
// logger.
func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ompmca-serve", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:8080", "listen address")
		domains    = fs.Int("domains", 3, "fabric worker domains")
		heartbeat  = fs.Duration("heartbeat", 25*time.Millisecond, "domain health ping period")
		dispatch   = fs.Int("dispatch", 64, "dispatch window: jobs inside the fabric at once")
		retryAfter = fs.Duration("retry-after", time.Second, "Retry-After hint on 429 responses")
		stateDir   = fs.String("state-dir", "", "durable job store directory: journal + snapshots, replayed at startup (empty: in-memory only)")
		tlsCert    = fs.String("tls-cert", "", "TLS certificate file (serve HTTPS; requires -tls-key)")
		tlsKey     = fs.String("tls-key", "", "TLS private key file (requires -tls-cert)")
		tenantsF   = fs.String("tenants-file", "", "tenants file, one name:key:quota:priority[:admin][:rate=R/B] per line (mode 0600)")
		tenants    tenantFlags
	)
	fs.Var(&tenants, "tenant", "tenant spec name:key:quota:priority[:admin][:rate=R/B] (repeatable; default: demo tenants)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if (*tlsCert == "") != (*tlsKey == "") {
		return fmt.Errorf("-tls-cert and -tls-key must be given together")
	}
	if *tenantsF != "" {
		fromFile, err := openmpmca.LoadTenantsFile(*tenantsF)
		if err != nil {
			return err
		}
		log.Printf("loaded %d tenant(s) from %s", len(fromFile), *tenantsF)
		tenants = append(tenants, fromFile...)
	}
	if len(tenants) == 0 {
		tenants = jobservice.DemoTenants()
		log.Print("no -tenant flags: installing demo tenants")
		for _, t := range tenants {
			role := ""
			if t.Admin {
				role = " admin"
			}
			log.Printf("  %-6s key=%s quota=%d priority=%s%s", t.Name, t.Key, t.Quota, t.Priority, role)
		}
	}

	jobs := openmpmca.NewJobRegistry()
	if err := jobservice.RegisterBuiltinJobs(jobs); err != nil {
		return err
	}
	kernels := openmpmca.NewOffloadRegistry()
	if err := jobservice.RegisterBuiltinKernels(kernels); err != nil {
		return err
	}
	if err := jobs.RegisterKernels(kernels); err != nil {
		return err
	}
	fab, err := openmpmca.NewTaskFabric(jobs,
		openmpmca.WithFabricDomains(*domains),
		openmpmca.WithFabricHeartbeat(*heartbeat),
	)
	if err != nil {
		return err
	}
	defer fab.Close()

	opts := []openmpmca.JobServiceOption{
		openmpmca.WithServiceTenants(tenants...),
		openmpmca.WithServiceDispatchWindow(*dispatch),
		openmpmca.WithServiceRetryAfter(*retryAfter),
	}
	if *stateDir != "" {
		log.Printf("durable job store in %s", *stateDir)
		opts = append(opts, openmpmca.WithServiceStateDir(*stateDir))
	}

	svc, err := openmpmca.NewJobService(fab, jobs, opts...)
	if err != nil {
		return err
	}
	defer svc.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: svc}
	errCh := make(chan error, 1)
	scheme := "http"
	if *tlsCert != "" {
		scheme = "https"
		go func() { errCh <- hs.ServeTLS(ln, *tlsCert, *tlsKey) }()
	} else {
		go func() { errCh <- hs.Serve(ln) }()
	}

	// The readiness line CI and scripts wait for; keep its
	// "listening on <url>" prefix stable.
	fmt.Fprintf(stdout, "ompmca-serve: listening on %s://%s (%d fabric domains)\n",
		scheme, ln.Addr(), *domains)

	select {
	case <-ctx.Done():
		log.Print("shutting down")
		shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(shCtx); err != nil {
			return err
		}
		return nil
	case err := <-errCh:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}
