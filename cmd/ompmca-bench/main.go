// Command ompmca-bench runs the curated hot-path benchmark suite and
// persists the measurements as a machine-readable trajectory
// (internal/benchjson). One BENCH_<n>.json is committed per PR, so the
// repo carries its own performance history; the compare mode diffs two
// trajectory files and flags regressions.
//
//	ompmca-bench -label pr7 -out BENCH_7.json       # measure
//	ompmca-bench -compare BENCH_6.json BENCH_7.json # diff
//
// The suite covers the latencies the paper's evaluation turns on:
// fork/join (Table I's parallel directive), task-steal throughput
// (taskbench), MCAPI message and packet round-trips (the transport under
// every offload), one offloaded region round-trip, and the task-fabric
// codec's frame throughput.
package main

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"openmpmca/internal/benchjson"
	"openmpmca/internal/core"
	"openmpmca/internal/jobservice"
	"openmpmca/internal/mcapi"
	"openmpmca/internal/offload"
	"openmpmca/internal/platform"
	"openmpmca/internal/syncq"
	"openmpmca/internal/taskfabric"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ompmca-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		label     = flag.String("label", "dev", "trajectory label recorded in the output")
		out       = flag.String("out", "", "output file (default stdout)")
		benchtime = flag.String("benchtime", "0.2s", "per-benchmark time or iteration budget (testing -benchtime syntax, e.g. 0.5s or 100x)")
		compare   = flag.Bool("compare", false, "compare two trajectory files given as arguments instead of measuring")
		tolerance = flag.Float64("tolerance", 10, "percent ns/op drift tolerated by -compare before flagging")
		failRegr  = flag.Bool("fail-on-regression", false, "with -compare, exit nonzero when regressions are found")
		list      = flag.Bool("list", false, "list suite benchmarks and exit")
		stats     = flag.Bool("stats", false, "run a short fabric+offload workload and emit the unified openmpmca.Snapshot JSON instead of benchmarking")
	)
	testing.Init()
	flag.Parse()

	if *list {
		for _, s := range suite() {
			fmt.Println(s.name)
		}
		return nil
	}
	if *stats {
		return runStats()
	}
	if *compare {
		return runCompare(flag.Args(), *tolerance, *failRegr)
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v (did you mean -compare?)", flag.Args())
	}
	if err := flag.Set("test.benchtime", *benchtime); err != nil {
		return fmt.Errorf("bad -benchtime: %w", err)
	}

	traj := &benchjson.Trajectory{
		SchemaVersion: benchjson.SchemaVersion,
		Label:         *label,
		GoVersion:     runtime.Version(),
		CreatedUnix:   time.Now().Unix(),
	}
	for _, s := range suite() {
		fmt.Fprintf(os.Stderr, "running %s...\n", s.name)
		res, err := s.measure()
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		fmt.Fprintf(os.Stderr, "  %s: %.1f ns/op, %.1f allocs/op\n", s.name, res.NsPerOp, res.AllocsPerOp)
		traj.Results = append(traj.Results, res)
	}
	buf, err := traj.Encode()
	if err != nil {
		return err
	}
	if *out == "" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	return os.WriteFile(*out, buf, 0o644)
}

// runStats exercises the fabric and the offloader with the built-in
// demo workloads and prints the unified stats umbrella — the same
// openmpmca.Snapshot shape the job service serves on /v1/stats — so
// benchmark tooling and the service speak one format.
func runStats() error {
	jobs := taskfabric.NewRegistry()
	if err := jobservice.RegisterBuiltinJobs(jobs); err != nil {
		return err
	}
	fab, err := taskfabric.NewFabric(jobs, taskfabric.WithDomains(3))
	if err != nil {
		return err
	}
	defer fab.Close()
	kernels := offload.NewRegistry()
	if err := jobservice.RegisterBuiltinKernels(kernels); err != nil {
		return err
	}
	off, err := taskfabric.NewOffloader(kernels, taskfabric.WithDomains(2))
	if err != nil {
		return err
	}
	defer off.Close()

	g := fab.NewGroup()
	for i := 0; i < 32; i++ {
		if _, err := g.SubmitJob(jobservice.JobFib, jobservice.U64(uint64(10+i))); err != nil {
			return err
		}
	}
	if err := g.WaitAll(taskfabric.TimeoutInfinite); err != nil {
		return err
	}
	if _, err := off.ParallelFor(jobservice.KernelVecSum, 100000, nil); err != nil {
		return err
	}

	host := fab.HostStats()
	fabStats := fab.Stats()
	offStats := off.Stats()
	snap := jobservice.Snapshot{Core: &host, Offload: &offStats, Fabric: &fabStats}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(snap)
}

func runCompare(paths []string, tolerance float64, failRegr bool) error {
	if len(paths) != 2 {
		return fmt.Errorf("-compare wants exactly two trajectory files, got %d", len(paths))
	}
	load := func(p string) (*benchjson.Trajectory, error) {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		return benchjson.Decode(data)
	}
	prev, err := load(paths[0])
	if err != nil {
		return fmt.Errorf("%s: %w", paths[0], err)
	}
	cur, err := load(paths[1])
	if err != nil {
		return fmt.Errorf("%s: %w", paths[1], err)
	}
	c := benchjson.Compare(prev, cur, tolerance)
	fmt.Print(c.Render())
	if failRegr && c.Regressions() > 0 {
		return fmt.Errorf("%d regression(s) beyond ±%.1f%%", c.Regressions(), tolerance)
	}
	return nil
}

// entry is one suite benchmark: measure sets up its fixture, runs it
// under testing.Benchmark, and returns the trajectory record.
type entry struct {
	name    string
	measure func() (benchjson.Result, error)
}

// resultOf converts a testing result, attaching optional extra metrics.
func resultOf(name string, r testing.BenchmarkResult, metrics map[string]float64) benchjson.Result {
	return benchjson.Result{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: float64(r.AllocsPerOp()),
		BytesPerOp:  float64(r.AllocedBytesPerOp()),
		Metrics:     metrics,
	}
}

// suite returns the curated benchmarks.
func suite() []entry {
	return []entry{
		{"fork_join", benchForkJoin},
		{"steal_throughput", benchStealThroughput},
		{"mcapi_msg_roundtrip", benchMsgRoundTrip},
		{"mcapi_pkt_roundtrip", benchPktRoundTrip},
		{"syncq_wait_timeout", benchWaitTimeout},
		{"taskcodec_frames", benchTaskCodec},
		{"offload_chunk_roundtrip", benchOffloadChunk},
		{"fabric_steal_roundtrip", func() (benchjson.Result, error) { return benchStealRoundTrip(true) }},
		{"fabric_steal_brokered", func() (benchjson.Result, error) { return benchStealRoundTrip(false) }},
	}
}

const benchThreads = 4

func mcaRuntime(opts ...core.Option) (*core.Runtime, error) {
	l, err := core.NewMCALayer(platform.T4240RDB().NewSystem())
	if err != nil {
		return nil, err
	}
	all := append([]core.Option{core.WithLayer(l), core.WithNumThreads(benchThreads)}, opts...)
	return core.New(all...)
}

// benchForkJoin measures an empty parallel region on the MCA-backed
// runtime — the paper's fork/join overhead (Table I, "parallel").
func benchForkJoin() (benchjson.Result, error) {
	rt, err := mcaRuntime()
	if err != nil {
		return benchjson.Result{}, err
	}
	defer rt.Close()
	var benchErr error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := rt.Parallel(func(c *core.Context) {}); err != nil {
				benchErr = err
				return
			}
		}
	})
	return resultOf("fork_join", r, nil), benchErr
}

// benchStealThroughput is the EPCC taskbench pattern on the stealing
// scheduler: every thread spawns tasks, then taskwaits.
func benchStealThroughput() (benchjson.Result, error) {
	const tasksPerRegion = 128
	rt, err := mcaRuntime(core.WithTaskQueue(core.TaskQueueSteal))
	if err != nil {
		return benchjson.Result{}, err
	}
	defer rt.Close()
	slots := make([]int, benchThreads*tasksPerRegion)
	per := tasksPerRegion / benchThreads
	var benchErr error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := rt.Parallel(func(c *core.Context) {
				base := c.ThreadNum() * tasksPerRegion
				for j := 0; j < per; j++ {
					slot := base + j
					c.Task(func() { slots[slot]++ })
				}
				c.TaskWait()
			}); err != nil {
				benchErr = err
				return
			}
		}
	})
	m := map[string]float64{}
	if ns := float64(r.T.Nanoseconds()) / float64(r.N); ns > 0 {
		m["tasks_per_sec"] = float64(tasksPerRegion) * 1e9 / ns
	}
	return resultOf("steal_throughput", r, m), benchErr
}

// benchMsgRoundTrip measures one MCAPI connectionless send+recv.
func benchMsgRoundTrip() (benchjson.Result, error) {
	sys := mcapi.NewSystem()
	n, err := sys.Initialize(1, 1)
	if err != nil {
		return benchjson.Result{}, err
	}
	ep, err := n.CreateEndpoint(1, nil)
	if err != nil {
		return benchjson.Result{}, err
	}
	payload := make([]byte, 64)
	var benchErr error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := mcapi.MsgSend(ep, payload, 0, mcapi.TimeoutInfinite); err != nil {
				benchErr = err
				return
			}
			if _, _, err := mcapi.MsgRecv(ep, mcapi.TimeoutInfinite); err != nil {
				benchErr = err
				return
			}
		}
	})
	return resultOf("mcapi_msg_roundtrip", r, nil), benchErr
}

// benchPktRoundTrip measures one MCAPI packet-channel send+recv.
func benchPktRoundTrip() (benchjson.Result, error) {
	sys := mcapi.NewSystem()
	n1, err := sys.Initialize(1, 1)
	if err != nil {
		return benchjson.Result{}, err
	}
	n2, err := sys.Initialize(1, 2)
	if err != nil {
		return benchjson.Result{}, err
	}
	out, err := n1.CreateEndpoint(1, nil)
	if err != nil {
		return benchjson.Result{}, err
	}
	in, err := n2.CreateEndpoint(1, nil)
	if err != nil {
		return benchjson.Result{}, err
	}
	if err := mcapi.PktConnect(out, in); err != nil {
		return benchjson.Result{}, err
	}
	send, err := mcapi.PktOpenSend(out)
	if err != nil {
		return benchjson.Result{}, err
	}
	recv, err := mcapi.PktOpenRecv(in)
	if err != nil {
		return benchjson.Result{}, err
	}
	payload := make([]byte, 64)
	var benchErr error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := send.Send(payload, mcapi.TimeoutInfinite); err != nil {
				benchErr = err
				return
			}
			if _, err := recv.Recv(mcapi.TimeoutInfinite); err != nil {
				benchErr = err
				return
			}
		}
	})
	return resultOf("mcapi_pkt_roundtrip", r, nil), benchErr
}

// benchWaitTimeout measures the syncq timed-wait path every blocking
// MCAPI operation sits on — the target of the waiter/timer pooling.
func benchWaitTimeout() (benchjson.Result, error) {
	var mu sync.Mutex
	var q syncq.WaitQueue
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mu.Lock()
			q.Wait(&mu, time.Microsecond, false)
			mu.Unlock()
		}
	})
	return resultOf("syncq_wait_timeout", r, nil), nil
}

// benchTaskCodec measures one task frame through the wire codec —
// encode, zero-copy decode, recycle — the task fabric's per-task cost.
func benchTaskCodec() (benchjson.Result, error) {
	arg := make([]byte, 64)
	var benchErr error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pkt := offload.EncodeTaskFrame(offload.KindTask, offload.TaskFrame{
				Task: uint64(i), Attempt: 1, Job: "job", Arg: arg,
			})
			if _, err := offload.DecodeTaskFrameShared(offload.KindTask, pkt); err != nil {
				benchErr = err
				return
			}
			offload.RecycleFrame(pkt)
		}
	})
	m := map[string]float64{}
	if ns := float64(r.T.Nanoseconds()) / float64(r.N); ns > 0 {
		m["frames_per_sec"] = 1e9 / ns
	}
	return resultOf("taskcodec_frames", r, m), benchErr
}

// benchStealRoundTrip measures how long an imbalanced task burst takes
// to settle when idle domains must pull queued work from loaded peers:
// serial domains, two short blockers pinning the first domains
// scheduled, and a tail of trivial tasks queued behind them, so the
// burst's latency is dominated by steal round-trips. peer toggles the
// direct mesh against host brokerage — the ablation pair the
// trajectory tracks (fabric_steal_roundtrip vs fabric_steal_brokered).
func benchStealRoundTrip(peer bool) (benchjson.Result, error) {
	name := "fabric_steal_roundtrip"
	if !peer {
		name = "fabric_steal_brokered"
	}
	reg := taskfabric.NewRegistry()
	err := reg.Register(taskfabric.FuncJob{
		JobName: "spin",
		Fn: func(rt *core.Runtime, arg []byte) ([]byte, error) {
			if len(arg) == 8 {
				if d := time.Duration(binary.LittleEndian.Uint64(arg)); d > 0 {
					time.Sleep(d)
				}
			}
			return arg, nil
		},
	})
	if err != nil {
		return benchjson.Result{}, err
	}
	f, err := taskfabric.NewFabric(reg,
		taskfabric.WithDomains(3),
		taskfabric.WithDomainWorkers(1),
		taskfabric.WithHeartbeat(time.Millisecond),
		taskfabric.WithTaskDeadline(10*time.Second), // keep re-dispatch out of the measurement
		taskfabric.WithInflight(16),
		taskfabric.WithPeerStealing(peer),
	)
	if err != nil {
		return benchjson.Result{}, err
	}
	defer f.Close()
	blockArg := binary.LittleEndian.AppendUint64(nil, uint64(time.Millisecond))
	quickArg := binary.LittleEndian.AppendUint64(nil, 0)
	var benchErr error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g := f.NewGroup()
			for j := 0; j < 2; j++ {
				if _, err := g.SubmitJob("spin", blockArg); err != nil {
					benchErr = err
					return
				}
			}
			for j := 0; j < 12; j++ {
				if _, err := g.SubmitJob("spin", quickArg); err != nil {
					benchErr = err
					return
				}
			}
			if err := g.WaitAll(taskfabric.TimeoutInfinite); err != nil {
				benchErr = err
				return
			}
		}
	})
	st := f.Stats()
	if benchErr == nil && st.Steals == 0 {
		benchErr = fmt.Errorf("%s: Steals = 0, the burst never forced a migration", name)
	}
	if benchErr == nil && peer && st.PeerSteals == 0 {
		benchErr = fmt.Errorf("%s: PeerSteals = 0 with the mesh on", name)
	}
	if benchErr == nil && !peer && st.PeerSteals != 0 {
		benchErr = fmt.Errorf("%s: PeerSteals = %d with the mesh off", name, st.PeerSteals)
	}
	m := map[string]float64{"steals": float64(st.Steals), "peer_steals": float64(st.PeerSteals)}
	return resultOf(name, r, m), benchErr
}

// benchOffloadChunk measures one offloaded parallel-for region: chunks
// travel to worker domains as fabric tasks and fold back on the host.
func benchOffloadChunk() (benchjson.Result, error) {
	reg := offload.NewRegistry()
	kern := offload.FuncKernel{
		KernelName: "sum",
		ChunkFn: func(rt *core.Runtime, lo, hi int, arg []byte) ([]byte, error) {
			var s uint64
			for i := lo; i < hi; i++ {
				s += uint64(i)
			}
			return binary.LittleEndian.AppendUint64(nil, s), nil
		},
		FoldFn: func(acc, part []byte) ([]byte, error) {
			if acc == nil {
				acc = make([]byte, 8)
			}
			total := binary.LittleEndian.Uint64(acc) + binary.LittleEndian.Uint64(part)
			binary.LittleEndian.PutUint64(acc, total)
			return acc, nil
		},
	}
	if err := reg.Register(kern); err != nil {
		return benchjson.Result{}, err
	}
	o, err := taskfabric.NewOffloader(reg,
		taskfabric.WithDomains(2),
		taskfabric.WithChunkIters(512),
	)
	if err != nil {
		return benchjson.Result{}, err
	}
	defer o.Close()
	var benchErr error
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := o.ParallelFor("sum", 4096, nil); err != nil {
				benchErr = err
				return
			}
		}
	})
	return resultOf("offload_chunk_roundtrip", r, nil), benchErr
}
