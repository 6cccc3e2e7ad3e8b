package jobservice

import (
	"bytes"
	"net/http"
	"testing"
	"time"

	"openmpmca/internal/offload"
	"openmpmca/internal/taskfabric"
)

// regionJob is one submitted job of the region tests and its expected
// result.
type regionJob struct {
	key, id string
	want    []byte
}

// settleRegionJobs waits for every job, checks its result byte-exact and
// returns the number of chunk events the regions' logs carry.
func settleRegionJobs(t *testing.T, e *testEnv, jobs []regionJob) uint64 {
	t.Helper()
	var chunks uint64
	for _, j := range jobs {
		for _, ev := range readEvents(t, e, j.key, j.id) {
			if ev.Type == EventChunk {
				chunks++
			}
		}
		if v := e.wait(t, j.key, j.id); v.Status != StatusSucceeded || !bytes.Equal(v.Result, j.want) {
			t.Errorf("job %s: %s %x (%s), want %x", j.id, v.Status, v.Result, v.Error, j.want)
		}
	}
	return chunks
}

// TestParallelForOnServiceFabric runs regions on the service's own
// fabric, with no WithOffloader, while fib and sum jobs share it. Every
// job settles byte-exact, and the region counters count chunks, not the
// fabric's tasks: remote plus local chunks equal the chunk events in the
// regions' logs exactly, though the fabric ran the jobs' tasks too. A
// registry with no kernels bound refuses parallel_for with 400 and shows
// no offload section.
func TestParallelForOnServiceFabric(t *testing.T) {
	e := newTestEnv(t)
	const regions = 6
	var jobs []regionJob
	for i := 0; i < regions; i++ {
		n := 3000 + 1111*i
		v := e.submit(t, "key-alice", submitRequest{Job: KernelVecSum, Kind: KindParallelFor, N: n})
		jobs = append(jobs, regionJob{"key-alice", v.ID, VecSumExpected(n)})
		v = e.submit(t, "key-bob", submitRequest{Job: JobFib, Arg: U64(uint64(30 + i))})
		jobs = append(jobs, regionJob{"key-bob", v.ID, FibExpected(uint64(30 + i))})
		v = e.submit(t, "key-bob", submitRequest{Job: JobSum, Arg: I64Pair(0, int64(100*i))})
		jobs = append(jobs, regionJob{"key-bob", v.ID, SumExpected(0, int64(100*i))})
	}
	chunks := settleRegionJobs(t, e, jobs)

	snap := e.srv.Snapshot()
	if snap.Offload == nil {
		t.Fatal("no offload section with kernels bound to the service's registry")
	}
	if snap.Offload.Regions != regions {
		t.Errorf("regions = %d, want %d", snap.Offload.Regions, regions)
	}
	if got := snap.Offload.RemoteChunks + snap.Offload.LocalChunks; got != chunks || chunks == 0 {
		t.Errorf("remote+local chunks = %d, want the %d chunk events exactly", got, chunks)
	}
	if tasks := snap.Fabric.RemoteTasks + snap.Fabric.LocalTasks; tasks < 2*regions {
		t.Errorf("fabric completed %d tasks, want the jobs' %d at least", tasks, 2*regions)
	}

	plain := taskfabric.NewRegistry()
	if err := RegisterBuiltinJobs(plain); err != nil {
		t.Fatal(err)
	}
	bare, _ := bootEnv(t, plain, []taskfabric.Option{taskfabric.WithDomains(1)})
	code, env := bare.do(t, http.MethodPost, "/v1/jobs", "key-bob",
		submitRequest{Job: KernelVecSum, Kind: KindParallelFor, N: 100})
	if code != http.StatusBadRequest {
		t.Errorf("parallel_for with no kernels bound = %d (%s), want 400", code, env.Error)
	}
	if snap := bare.srv.Snapshot(); snap.Offload != nil {
		t.Errorf("offload section %+v with no kernels bound", snap.Offload)
	}
}

// TestParallelForOnOffloaderFabric keeps the WithOffloader path, which
// the benchmark harness wires: regions run on a separate region fabric,
// jobs on the service's, and /v1/domains, /v1/health and /v1/stats
// report the region fabric under offload.
func TestParallelForOnOffloaderFabric(t *testing.T) {
	kernels := offload.NewRegistry()
	if err := RegisterBuiltinKernels(kernels); err != nil {
		t.Fatal(err)
	}
	off, err := taskfabric.NewOffloader(kernels,
		taskfabric.WithDomains(2),
		taskfabric.WithHeartbeat(10*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer off.Close()
	jobs := taskfabric.NewRegistry()
	if err := RegisterBuiltinJobs(jobs); err != nil {
		t.Fatal(err)
	}
	e, _ := bootEnv(t, jobs, []taskfabric.Option{taskfabric.WithDomains(3)}, WithOffloader(off, kernels))

	const n = 7000
	pf := e.submit(t, "key-alice", submitRequest{Job: KernelVecSum, Kind: KindParallelFor, N: n})
	fib := e.submit(t, "key-bob", submitRequest{Job: JobFib, Arg: U64(40)})
	chunks := settleRegionJobs(t, e, []regionJob{
		{"key-alice", pf.ID, VecSumExpected(n)},
		{"key-bob", fib.ID, FibExpected(40)},
	})

	var doms DomainsView
	_, env := e.do(t, http.MethodGet, "/v1/domains", "key-bob", nil)
	meta(t, env, &doms)
	if len(doms.Fabric) != 3 || len(doms.Offload) != 2 {
		t.Errorf("domains = %d fabric, %d offload; want 3, 2", len(doms.Fabric), len(doms.Offload))
	}
	if h := e.srv.Health(); len(h.Offload) != 2 || h.DomainsLive != 5 {
		t.Errorf("health: %d offload domains, %d live; want 2, 5", len(h.Offload), h.DomainsLive)
	}
	snap := e.srv.Snapshot()
	if snap.Offload == nil || snap.Offload.Regions != 1 ||
		snap.Offload.RemoteChunks+snap.Offload.LocalChunks != chunks {
		t.Errorf("offload = %+v, want 1 region of %d chunks", snap.Offload, chunks)
	}
	if rs := e.fab.RegionStats(); rs.Regions != 0 {
		t.Errorf("service fabric ran %d regions, want 0", rs.Regions)
	}
}
