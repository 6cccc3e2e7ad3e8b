// Region tests: kernels registered in this package, driven end to end as
// parallel-for regions on the task fabric. They live in an external test
// package because the engine (taskfabric's region.go) imports this one.
package offload_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"openmpmca/internal/core"
	"openmpmca/internal/oerrors"
	"openmpmca/internal/offload"
	"openmpmca/internal/taskfabric"
	"openmpmca/internal/trace"
)

// mix is a cheap deterministic hash so chunk results depend on the exact
// iteration indices computed.
func mix(i int64) int64 {
	x := uint64(i)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 29
	return int64(x % 1000003)
}

// sumKernel sums mix(i) over the chunk using the executing domain's
// OpenMP runtime.
func sumKernel() offload.FuncKernel {
	return offload.FuncKernel{
		KernelName: "sum",
		ChunkFn: func(rt *core.Runtime, lo, hi int, arg []byte) ([]byte, error) {
			var mu sync.Mutex
			var sum int64
			err := rt.ParallelForRange(hi-lo, func(l, h int) {
				var s int64
				for i := l; i < h; i++ {
					s += mix(int64(lo + i))
				}
				mu.Lock()
				sum += s
				mu.Unlock()
			})
			if err != nil {
				return nil, err
			}
			return binary.LittleEndian.AppendUint64(nil, uint64(sum)), nil
		},
		FoldFn: func(acc, part []byte) ([]byte, error) {
			if len(part) != 8 {
				return nil, fmt.Errorf("bad partial: %d bytes", len(part))
			}
			if acc == nil {
				acc = make([]byte, 8)
			}
			total := int64(binary.LittleEndian.Uint64(acc)) + int64(binary.LittleEndian.Uint64(part))
			binary.LittleEndian.PutUint64(acc, uint64(total))
			return acc, nil
		},
	}
}

func seqSum(n int) int64 {
	var s int64
	for i := 0; i < n; i++ {
		s += mix(int64(i))
	}
	return s
}

func decodeSum(t *testing.T, b []byte) int64 {
	t.Helper()
	if len(b) != 8 {
		t.Errorf("result is %d bytes, want 8", len(b))
		return 0
	}
	return int64(binary.LittleEndian.Uint64(b))
}

// newOffloader builds a region fabric whose kernel registry holds k
// (sumKernel when nil), closed when the test ends.
func newOffloader(t *testing.T, k offload.Kernel, opts ...taskfabric.Option) *taskfabric.Fabric {
	t.Helper()
	if k == nil {
		k = sumKernel()
	}
	reg := offload.NewRegistry()
	if err := reg.Register(k); err != nil {
		t.Fatal(err)
	}
	o, err := taskfabric.NewOffloader(reg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { o.Close() })
	return o
}

func TestParallelForDistributes(t *testing.T) {
	rec := trace.NewRecorder(4096)
	o := newOffloader(t, nil,
		taskfabric.WithDomains(3),
		taskfabric.WithHeartbeat(10*time.Millisecond),
		taskfabric.WithEventSink(rec),
	)

	const n = 50000
	var seen []int
	got, err := o.ParallelForObserved("sum", n, nil, func(chunk, total, domain int) {
		if total != 16 || domain < -1 || domain >= 3 {
			t.Errorf("chunk %d: total %d domain %d, want total 16 and a domain in [-1,3)", chunk, total, domain)
		}
		seen = append(seen, chunk)
	})
	if err != nil {
		t.Fatalf("ParallelFor: %v", err)
	}
	if want := seqSum(n); decodeSum(t, got) != want {
		t.Errorf("sum = %d, want %d", decodeSum(t, got), want)
	}
	if len(seen) != 16 {
		t.Errorf("observed %d chunk completions, want 16", len(seen))
	}

	st := o.RegionStats()
	if st.Regions != 1 {
		t.Errorf("Regions = %d, want 1", st.Regions)
	}
	if st.RemoteChunks == 0 {
		t.Error("no chunks ran remotely: offload did not distribute")
	}
	if st.LocalChunks == 0 {
		t.Error("no chunks ran on the host: the calling goroutine's share is missing")
	}
	if lost := o.Stats().DomainsLost; lost != 0 {
		t.Errorf("DomainsLost = %d, want 0", lost)
	}
	sum := rec.Summary()
	if sum.TaskSends == 0 || sum.TaskRecvs == 0 {
		t.Errorf("trace recorded %d sends / %d recvs, want > 0", sum.TaskSends, sum.TaskRecvs)
	}
	if sum.TaskRecvs != st.RemoteChunks+st.LocalChunks {
		t.Errorf("trace recvs %d != completed chunks %d", sum.TaskRecvs, st.RemoteChunks+st.LocalChunks)
	}

	// A second region on the same offloader must work and keep counting.
	got, err = o.ParallelFor("sum", 1234, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := seqSum(1234); decodeSum(t, got) != want {
		t.Errorf("second region sum = %d, want %d", decodeSum(t, got), want)
	}
	if st := o.RegionStats(); st.Regions != 2 {
		t.Errorf("Regions = %d, want 2", st.Regions)
	}
}

// TestParallelForMatchesSequentialFold pins the fold contract across
// the chunking edge cases: whatever n does to the chunk count and the
// host/group split, the result is the sequential sum.
func TestParallelForMatchesSequentialFold(t *testing.T) {
	const chunk = 64
	for _, domains := range []int{1, 3} {
		o := newOffloader(t, nil, taskfabric.WithDomains(domains), taskfabric.WithChunkIters(chunk))
		sized := newOffloader(t, nil, taskfabric.WithDomains(domains)) // chunks sized per region
		for _, n := range []int{1, chunk - 1, chunk, chunk + 1, 100_000} {
			for name, o := range map[string]*taskfabric.Fabric{"fixed": o, "sized": sized} {
				got, err := o.ParallelFor("sum", n, nil)
				if err != nil {
					t.Fatalf("domains=%d n=%d %s chunks: %v", domains, n, name, err)
				}
				if want := seqSum(n); decodeSum(t, got) != want {
					t.Errorf("domains=%d n=%d %s chunks: sum = %d, want %d", domains, n, name, decodeSum(t, got), want)
				}
			}
		}
	}
}

func TestParallelForUnknownKernel(t *testing.T) {
	o, err := taskfabric.NewOffloader(offload.NewRegistry(), taskfabric.WithDomains(1))
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	if _, err := o.ParallelFor("nope", 10, nil); err == nil {
		t.Error("unknown kernel accepted")
	}
	if _, err := o.ParallelFor("nope", 0, nil); err == nil {
		t.Error("kernel name not validated for an empty region")
	}
	// A fabric with no kernels bound knows no kernel.
	f, err := taskfabric.NewFabric(taskfabric.NewRegistry(), taskfabric.WithDomains(1))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.ParallelFor("sum", 10, nil); err == nil {
		t.Error("region ran on a fabric with no kernels bound")
	}
}

// TestParallelForOverCap: a region over MaxRegionIters is refused with a
// classified error before a chunk is cut — n = MaxInt once overflowed
// the chunk-size arithmetic into a panic — and the fabric keeps serving.
func TestParallelForOverCap(t *testing.T) {
	o := newOffloader(t, nil, taskfabric.WithDomains(2))
	for _, n := range []int{taskfabric.MaxRegionIters + 1, math.MaxInt} {
		_, err := o.ParallelFor("sum", n, nil)
		if code, _ := oerrors.CodeOf(err); code != oerrors.CodeRegionTooLarge {
			t.Errorf("n = %d: err = %v, want code %s", n, err, oerrors.CodeRegionTooLarge)
		}
		if cat, _ := oerrors.CategoryOf(err); cat != oerrors.Admission {
			t.Errorf("n = %d: category %q, want %q", n, cat, oerrors.Admission)
		}
	}
	if st := o.RegionStats(); st.Regions != 0 {
		t.Errorf("refused regions counted: Regions = %d", st.Regions)
	}
	got, err := o.ParallelFor("sum", 1000, nil)
	if err != nil || decodeSum(t, got) != seqSum(1000) {
		t.Errorf("region after the refusals = %d, %v; want %d", decodeSum(t, got), err, seqSum(1000))
	}
}

// TestDomainLossMidRegion kills a domain while a region is in flight and
// asserts the region still completes with the full, correct result,
// surfaces ErrDomainLost, and counts exactly one lost domain.
func TestDomainLossMidRegion(t *testing.T) {
	// Chunk 0 heads the group, so it is dispatched to domain 0; its
	// first execution kills that domain from inside the kernel. The kill
	// therefore lands with chunk 0 itself in flight there (its result
	// dies with the domain), which no timing can undo.
	var o *taskfabric.Fabric
	var once sync.Once
	k := sumKernel()
	sum := k.ChunkFn
	k.ChunkFn = func(rt *core.Runtime, lo, hi int, arg []byte) ([]byte, error) {
		if lo == 0 {
			once.Do(func() { _ = o.KillDomain(0) })
		}
		return sum(rt, lo, hi, arg)
	}
	o = newOffloader(t, k,
		taskfabric.WithDomains(3),
		taskfabric.WithChunkIters(100),
		taskfabric.WithHeartbeat(5*time.Millisecond), // lost after 40ms
		taskfabric.WithTaskDeadline(150*time.Millisecond),
	)

	const n = 15000 // 150 chunks of 100 iterations
	got, err := o.ParallelFor("sum", n, nil)
	if !errors.Is(err, offload.ErrDomainLost) {
		t.Errorf("region error = %v, want ErrDomainLost", err)
	}
	if want := seqSum(n); decodeSum(t, got) != want {
		t.Errorf("sum = %d, want %d: region lost work with the domain", decodeSum(t, got), want)
	}
	st := o.Stats()
	if st.DomainsLost != 1 {
		t.Errorf("DomainsLost = %d, want 1", st.DomainsLost)
	}
	if st.Resends == 0 {
		t.Error("Resends = 0: the dead domain's chunks were never re-dispatched")
	}

	// The survivors must still serve the next region.
	got, err = o.ParallelFor("sum", 2000, nil)
	if err != nil {
		t.Fatalf("region after loss: %v", err)
	}
	if want := seqSum(2000); decodeSum(t, got) != want {
		t.Errorf("post-loss sum = %d, want %d", decodeSum(t, got), want)
	}
	if st := o.Stats(); st.DomainsLost != 1 {
		t.Errorf("DomainsLost after second region = %d, want 1", st.DomainsLost)
	}
}

func TestKernelErrorPropagates(t *testing.T) {
	o := newOffloader(t, offload.FuncKernel{
		KernelName: "bad",
		ChunkFn: func(rt *core.Runtime, lo, hi int, arg []byte) ([]byte, error) {
			return nil, fmt.Errorf("synthetic failure")
		},
		FoldFn: func(acc, part []byte) ([]byte, error) { return acc, nil },
	}, taskfabric.WithDomains(1))
	if _, err := o.ParallelFor("bad", 100, nil); err == nil {
		t.Error("kernel error did not propagate")
	}
	// One chunk only, so the group — not the host share — runs it.
	if _, err := o.ParallelFor("bad", 1, nil); err == nil {
		t.Error("kernel error on a worker domain did not propagate")
	}
}

func TestOptionValidation(t *testing.T) {
	bad := []taskfabric.Option{
		taskfabric.WithDomains(0),
		taskfabric.WithDomains(65),
		taskfabric.WithBoard(nil),
		taskfabric.WithChunkIters(-1),
		taskfabric.WithTaskDeadline(0),
		taskfabric.WithHeartbeat(0),
		taskfabric.WithInflight(0),
	}
	for i, opt := range bad {
		if _, err := taskfabric.NewOffloader(offload.NewRegistry(), opt); !errors.Is(err, core.ErrInvalidOption) {
			t.Errorf("option %d: err = %v, want ErrInvalidOption", i, err)
		}
	}
	if _, err := taskfabric.NewOffloader(nil); !errors.Is(err, core.ErrInvalidOption) {
		t.Errorf("nil registry: err = %v, want ErrInvalidOption", err)
	}
}

func TestCloseIdempotentAndRejects(t *testing.T) {
	o, err := taskfabric.NewOffloader(offload.NewRegistry(), taskfabric.WithDomains(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := o.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := o.ParallelFor("sum", 10, nil); !errors.Is(err, taskfabric.ErrClosed) {
		t.Errorf("ParallelFor after Close = %v, want the fabric's ErrClosed", err)
	}
	if err := o.ReadmitDomain(0); !errors.Is(err, taskfabric.ErrClosed) {
		t.Errorf("ReadmitDomain after Close = %v, want the fabric's ErrClosed", err)
	}
}

// TestReadmitDomain: a lost domain, restarted, rejoins the fabric via
// ReadmitDomain and serves chunks again.
func TestReadmitDomain(t *testing.T) {
	o := newOffloader(t, nil,
		taskfabric.WithDomains(2),
		taskfabric.WithHeartbeat(5*time.Millisecond), // lost after 40ms
	)

	// A live domain cannot be readmitted.
	if err := o.ReadmitDomain(0); err == nil {
		t.Error("ReadmitDomain accepted a live domain")
	}
	if err := o.ReadmitDomain(99); err == nil {
		t.Error("ReadmitDomain accepted an out-of-range index")
	}

	if err := o.KillDomain(0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for o.Stats().DomainsLost == 0 {
		if time.Now().After(deadline) {
			t.Fatal("domain never declared lost")
		}
		time.Sleep(time.Millisecond)
	}

	if err := o.ReadmitDomain(0); err != nil {
		t.Fatalf("ReadmitDomain: %v", err)
	}
	if st := o.Stats(); st.Readmissions != 1 {
		t.Errorf("Readmissions = %d, want 1", st.Readmissions)
	}
	if infos := o.DomainInfos(); len(infos) != 2 || !infos[0].Live {
		t.Errorf("DomainInfos after readmission = %+v, want domain 0 live", infos)
	}

	// The readmitted fabric must complete regions correctly again.
	const n = 20000
	got, err := o.ParallelFor("sum", n, nil)
	if err != nil {
		t.Fatalf("region after readmission: %v", err)
	}
	if want := seqSum(n); decodeSum(t, got) != want {
		t.Errorf("post-readmission sum = %d, want %d", decodeSum(t, got), want)
	}
	if st := o.Stats(); st.DomainsLost != 1 {
		t.Errorf("DomainsLost = %d, want 1 (readmission must not re-count)", st.DomainsLost)
	}
}

// TestConcurrentRegionsShareOneSink runs eight regions at once on one
// fabric, interleaved with a task group on that fabric and another on a
// second fabric, all feeding one trace.Recorder: results must be
// byte-exact, and every chunk and task must be received exactly once
// under an ID of its own — as many received IDs as units of work, none
// received twice, none sent and never received — which fails if two
// live tasks ever share an ID across regions or fabrics, or if the
// region counters count the shared fabric's tasks.
func TestConcurrentRegionsShareOneSink(t *testing.T) {
	rec := trace.NewRecorder(4096)
	echo := taskfabric.FuncJob{JobName: "echo", Fn: func(_ *core.Runtime, arg []byte) ([]byte, error) {
		return append([]byte(nil), arg...), nil
	}}
	kernels := offload.NewRegistry()
	if err := kernels.Register(sumKernel()); err != nil {
		t.Fatal(err)
	}
	var fabs [2]*taskfabric.Fabric
	for i := range fabs {
		jobs := taskfabric.NewRegistry()
		if err := jobs.Register(echo); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if err := jobs.RegisterKernels(kernels); err != nil {
				t.Fatal(err)
			}
		}
		f, err := taskfabric.NewFabric(jobs, taskfabric.WithDomains(2), taskfabric.WithEventSink(rec))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		fabs[i] = f
	}
	o := fabs[0]

	const regions, tasks = 8, 64
	var wg sync.WaitGroup
	for r := 0; r < regions; r++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			got, err := o.ParallelFor("sum", n, nil)
			if err != nil {
				t.Errorf("region n=%d: %v", n, err)
				return
			}
			if want := seqSum(n); decodeSum(t, got) != want {
				t.Errorf("region n=%d: sum = %d, want %d", n, decodeSum(t, got), want)
			}
		}(10_000 + 777*r)
	}
	for _, f := range fabs {
		g := f.NewGroup()
		handles := make([]*taskfabric.TaskHandle, tasks)
		for i := range handles {
			var err error
			if handles[i], err = g.SubmitJob("echo", []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := g.WaitAll(taskfabric.TimeoutInfinite); err != nil {
			t.Fatal(err)
		}
		for i, h := range handles {
			if res, err := h.Wait(0); err != nil || len(res) != 1 || res[0] != byte(i) {
				t.Errorf("task %d: result %v, %v", i, res, err)
			}
		}
	}
	wg.Wait()

	st := o.RegionStats()
	want := st.RemoteChunks + st.LocalChunks + 2*tasks
	if d := rec.Summary().Dropped; d != 0 {
		t.Fatalf("recorder dropped %d events", d)
	}
	sent := make(map[uint64]bool, want)
	recvs := make(map[uint64]int, want)
	for _, e := range rec.Events() {
		switch id := uint64(e.Units); e.Kind {
		case trace.EvTaskSend:
			sent[id] = true
		case trace.EvTaskRecv:
			recvs[id]++
		}
	}
	if uint64(len(recvs)) != want {
		t.Errorf("%d task IDs received, want %d (chunks + tasks)", len(recvs), want)
	}
	for id, n := range recvs {
		if n != 1 {
			t.Errorf("task id %d received %d times", id, n)
		}
	}
	for id := range sent {
		if recvs[id] == 0 {
			t.Errorf("task id %d sent, never received", id)
		}
	}
}
