package chaos

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"testing"
	"time"

	"openmpmca/internal/jobservice"
	"openmpmca/internal/offload"
	"openmpmca/internal/taskfabric"
)

// crashHelperEnv marks a re-exec of the test binary as the server under
// test: TestMain diverts to crashHelperMain before any test runs, so
// RunCrash gets a real, separately-killable process without needing a
// prebuilt ompmca-serve on disk.
const crashHelperEnv = "OMPMCA_CRASH_HELPER"

func TestMain(m *testing.M) {
	if os.Getenv(crashHelperEnv) == "1" {
		crashHelperMain()
		return
	}
	os.Exit(m.Run())
}

// crashHelperMain is a miniature ompmca-serve: demo tenants, a durable
// state dir, and the same stable readiness line. It never shuts down
// gracefully — the whole point is to be SIGKILLed.
func crashHelperMain() {
	fs := flag.NewFlagSet("crash-helper", flag.ExitOnError)
	stateDir := fs.String("state-dir", "", "durable store dir")
	addr := fs.String("addr", "127.0.0.1:0", "listen address")
	_ = fs.Parse(os.Args[1:])
	if *stateDir == "" {
		log.Fatal("crash helper: -state-dir required")
	}

	jobs := taskfabric.NewRegistry()
	if err := jobservice.RegisterBuiltinJobs(jobs); err != nil {
		log.Fatal(err)
	}
	kernels := offload.NewRegistry()
	if err := jobservice.RegisterBuiltinKernels(kernels); err != nil {
		log.Fatal(err)
	}
	if err := jobs.RegisterKernels(kernels); err != nil {
		log.Fatal(err)
	}
	fab, err := taskfabric.NewFabric(jobs,
		taskfabric.WithDomains(2),
		taskfabric.WithHeartbeat(10*time.Millisecond),
	)
	if err != nil {
		log.Fatal(err)
	}
	srv, err := jobservice.New(fab, jobs,
		jobservice.WithTenants(jobservice.DemoTenants()...),
		jobservice.WithStateDir(*stateDir),
	)
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ompmca-serve: listening on http://%s (2 fabric domains)\n", ln.Addr())
	log.Fatal(http.Serve(ln, srv))
}

// TestCrashRestartCampaign is the durability property under a genuine
// SIGKILL: a loaded server process dies without flushing anything,
// restarts over the same state dir, and every job accepted before the
// kill settles with its byte-exact result.
func TestCrashRestartCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second crash-restart campaign")
	}
	r := RunCrash(CrashCampaign{
		Name:     "crash-restart",
		Seed:     42,
		ServeBin: os.Args[0],
		Env:      []string{crashHelperEnv + "=1"},
		StateDir: t.TempDir(),
		Jobs:     12,
		Spins:    4,
		SpinDur:  500 * time.Millisecond,
		Kills:    2,
	})
	t.Log(r.Summary())
	if !r.OK() {
		t.Fatalf("crash campaign failed: %v", r.Failures)
	}
	if r.Lost != 0 || r.Inexact != 0 {
		t.Fatalf("lost=%d inexact=%d, want 0/0", r.Lost, r.Inexact)
	}
	if r.Settled != r.Submitted {
		t.Fatalf("settled %d/%d, want all", r.Settled, r.Submitted)
	}
	if r.Recovered == 0 {
		t.Fatal("Recovered = 0: no job survived a SIGKILL, the kills landed on an idle server")
	}
}
