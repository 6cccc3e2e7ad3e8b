package openmpmca

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (§6), plus the ablations DESIGN.md calls out:
//
//	BenchmarkTable1/*      — EPCC overhead ratio per directive (Table I)
//	BenchmarkBoot/*        — one runtime boot per layer (Table I's
//	                         differencing applied to boot)
//	BenchmarkReopen        — one durable job-service restart, per
//	                         thousand replayed jobs
//	BenchmarkFigure4/*     — NAS kernel scaling, MCA vs native (Figure 4)
//	BenchmarkFigure1       — board model construction/diagram (Figure 1)
//	BenchmarkAblation*     — barrier algorithm, shmem kind, pool reuse,
//	                         loop schedules
//	BenchmarkP4080/*       — the §4C predecessor board, for comparison
//	Benchmark{MRAPI,MCAPI,MTAPI}* — substrate micro-benchmarks
//
// Figure-level benchmarks report model-derived metrics via
// b.ReportMetric: "speedup24" (speedup at 24 threads), "gap%" (max
// MCA-vs-native modeled time gap) and "modeled-s" (virtual seconds on the
// T4240), alongside the usual wall ns/op of regenerating the experiment.

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"openmpmca/internal/board"
	"openmpmca/internal/core"
	"openmpmca/internal/durable"
	"openmpmca/internal/epcc"
	"openmpmca/internal/mcapi"
	"openmpmca/internal/mrapi"
	"openmpmca/internal/mtapi"
	"openmpmca/internal/npb"
	"openmpmca/internal/perfmodel"
	"openmpmca/internal/platform"
)

// benchThreads keeps construct-level benches affordable on small hosts
// while still exercising multi-cluster teams of the modeled board.
const benchThreads = 8

func nativeRuntime(b *testing.B, threads int, opts ...core.Option) *core.Runtime {
	b.Helper()
	all := append([]core.Option{
		core.WithLayer(core.NewNativeLayer(platform.T4240RDB().HWThreads())),
		core.WithNumThreads(threads),
	}, opts...)
	rt, err := core.New(all...)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = rt.Close() })
	return rt
}

func mcaRuntime(b *testing.B, threads int, opts ...core.Option) *core.Runtime {
	b.Helper()
	l, err := core.NewMCALayer(platform.T4240RDB().NewSystem())
	if err != nil {
		b.Fatal(err)
	}
	all := append([]core.Option{
		core.WithLayer(l),
		core.WithNumThreads(threads),
	}, opts...)
	rt, err := core.New(all...)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = rt.Close() })
	return rt
}

// ----- Table I -----

// BenchmarkTable1 measures, per directive, the EPCC overhead of the
// MCA-backed runtime and of the native runtime, reporting their ratio —
// one cell of the paper's Table I per sub-benchmark.
func BenchmarkTable1(b *testing.B) {
	opt := epcc.Options{InnerReps: 64, OuterReps: 3, DelayLength: 32}
	for _, construct := range epcc.Table1Constructs {
		b.Run(construct, func(b *testing.B) {
			ratioSum := 0.0
			for i := 0; i < b.N; i++ {
				nat := nativeRuntime(b, benchThreads)
				natUS, err := epcc.NewSuite(nat, opt).Measure(construct)
				if err != nil {
					b.Fatal(err)
				}
				mca := mcaRuntime(b, benchThreads)
				mcaUS, err := epcc.NewSuite(mca, opt).Measure(construct)
				if err != nil {
					b.Fatal(err)
				}
				_ = nat.Close()
				_ = mca.Close()
				r := mcaUS.OverheadUS / natUS.OverheadUS
				if natUS.OverheadUS < 0.01 { // noise floor, as in table.go
					r = 1
				}
				ratioSum += r
			}
			b.ReportMetric(ratioSum/float64(b.N), "mca/native")
		})
	}
}

// BenchmarkBoot boots a runtime the way a restart does, on each layer:
// the board, the layer, core.New with 4 threads, one empty region, Close.
// Both layers run the same core code, so mca − native is the MCA layer's
// boot cost: the board's MRAPI universe, node registration per worker and
// thread creation through MRAPI.
func BenchmarkBoot(b *testing.B) {
	layers := []struct {
		name string
		mk   func(board *platform.Board) (core.ThreadLayer, error)
	}{
		{"native", func(board *platform.Board) (core.ThreadLayer, error) {
			return core.NewNativeLayer(board.HWThreads()), nil
		}},
		{"mca", func(board *platform.Board) (core.ThreadLayer, error) {
			return core.NewMCALayer(board.NewSystem())
		}},
	}
	body := func(*core.Context) {}
	for _, lc := range layers {
		b.Run(lc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l, err := lc.mk(platform.T4240RDB())
				if err != nil {
					b.Fatal(err)
				}
				rt, err := core.New(core.WithLayer(l), core.WithNumThreads(4))
				if err != nil {
					b.Fatal(err)
				}
				if err := rt.Parallel(body); err != nil {
					b.Fatal(err)
				}
				if err := rt.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkReopen restarts a durable job service the way a graceful
// restart does: Close of the running service, which closes its store,
// then a new service over the same state dir, which opens the store and
// rebuilds the service's job tables from it. The dir holds 1 000 settled
// jobs and nothing changes between restarts, so this is the restart
// after a restart; it reports ms per thousand replayed jobs, the unit of
// the full-stack svc_durable restart_ms.
func BenchmarkReopen(b *testing.B) {
	const jobs = 1000
	dir := b.TempDir()
	st, err := durable.Open(dir, durable.WithFsync(false))
	if err != nil {
		b.Fatal(err)
	}
	for i := 1; i <= jobs; i++ {
		id := "j-" + strconv.Itoa(i)
		for _, e := range []durable.Entry{
			{Op: durable.OpAccept, ID: id, Tenant: "alice", Kind: "task", Name: "sum", Arg: make([]byte, 16)},
			{Op: durable.OpDispatch, ID: id},
			{Op: durable.OpSettle, ID: id, Status: durable.StatusSucceeded, Result: make([]byte, 8)},
		} {
			if err := st.Append(e); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	reg := NewJobRegistry()
	fab, err := NewTaskFabric(reg, WithFabricDomains(1))
	if err != nil {
		b.Fatal(err)
	}
	defer fab.Close()
	open := func() *JobService {
		svc, err := NewJobService(fab, reg, WithServiceStateDir(dir),
			WithServiceTenants(Tenant{Name: "alice", Key: "k", Quota: 1, Priority: ServicePriorityNormal}))
		if err != nil {
			b.Fatal(err)
		}
		if n := svc.DurableStats().ReplayedJobs; n != jobs {
			b.Fatalf("replayed %d jobs, want %d", n, jobs)
		}
		return svc
	}
	svc := open()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := svc.Close(); err != nil {
			b.Fatal(err)
		}
		svc = open()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1e6/(jobs/1000), "ms/kjob")
	if err := svc.Close(); err != nil {
		b.Fatal(err)
	}
}

// ----- Figure 4 -----

// BenchmarkFigure4 regenerates one panel of Figure 4 per kernel (class S
// so the full suite stays affordable; use cmd/ompmca-npb for classes W/A)
// and reports the model-derived speedup at 24 threads plus the
// MCA-vs-native gap.
func BenchmarkFigure4(b *testing.B) {
	threads := []int{1, 12, 24}
	for _, kernel := range npb.Kernels {
		b.Run(kernel, func(b *testing.B) {
			var speedup24, gap float64
			for i := 0; i < b.N; i++ {
				s, err := npb.MeasureFigure4(platform.T4240RDB(), kernel, npb.ClassS, threads)
				if err != nil {
					b.Fatal(err)
				}
				for _, p := range s.Points {
					if !p.Verified {
						b.Fatalf("%s unverified at %s/%d", kernel, p.Layer, p.Threads)
					}
				}
				speedup24 = s.SpeedupAt("mca", 24)
				gap = s.MaxRelativeGap() * 100
			}
			b.ReportMetric(speedup24, "speedup24")
			b.ReportMetric(gap, "gap%")
		})
	}
}

// ----- Figures 1–3 artifacts -----

// BenchmarkFigure1 regenerates the board model and its block diagram.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		board := platform.T4240RDB()
		if board.BlockDiagram() == "" || board.ResourceTree() == nil {
			b.Fatal("empty artifact")
		}
	}
}

// BenchmarkFigure2 regenerates the hypervisor partition map: create the
// three-guest layout, start it, render, tear down.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		hv, err := platform.NewHypervisor(platform.T4240RDB())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := hv.CreatePartition("ctrl", platform.GuestLinux, []int{0, 1, 2, 3}, 2048); err != nil {
			b.Fatal(err)
		}
		if _, err := hv.CreatePartition("data", platform.GuestBareMetal, []int{8, 9, 10, 11}, 1024); err != nil {
			b.Fatal(err)
		}
		if err := hv.Start("ctrl"); err != nil {
			b.Fatal(err)
		}
		if hv.Render() == "" {
			b.Fatal("empty render")
		}
	}
}

// BenchmarkFigure3 regenerates the development-environment flow: a full
// network boot cycle (TFTP kernel fetch, checksum, NFS root mount).
func BenchmarkFigure3(b *testing.B) {
	brd := board.NewBoard()
	tftp := board.NewTFTPServer()
	flashImg, err := brd.Flash.Read("uImage")
	if err != nil {
		b.Fatal(err)
	}
	tftp.Put("uImage-dev", flashImg)
	nfs := board.NewNFSServer()
	nfs.AddExport("/srv/t4240")
	cfg := board.BootConfig{
		Source: board.BootNetwork, TFTP: tftp, KernelFile: "uImage-dev",
		NFS: nfs, Export: "/srv/t4240",
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		brd.Reset()
		if err := brd.Boot(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// ----- §4C: the predecessor board -----

// BenchmarkP4080 runs the EP kernel's model on the P4080DS (8 cores, no
// SMT) so the two boards' scaling can be compared as in §4C.
func BenchmarkP4080(b *testing.B) {
	b.Run("EP", func(b *testing.B) {
		var speedup8 float64
		for i := 0; i < b.N; i++ {
			s, err := npb.MeasureFigure4(platform.P4080DS(), "EP", npb.ClassS, []int{1, 8})
			if err != nil {
				b.Fatal(err)
			}
			speedup8 = s.SpeedupAt("mca", 8)
		}
		b.ReportMetric(speedup8, "speedup8")
	})
}

// ----- ablations -----

// BenchmarkAblationBarrier compares the central barrier against the
// combining tree inside real parallel regions.
func BenchmarkAblationBarrier(b *testing.B) {
	for _, kind := range []core.BarrierKind{core.BarrierCentral, core.BarrierTree} {
		b.Run(kind.String(), func(b *testing.B) {
			rt := nativeRuntime(b, benchThreads, core.WithBarrierKind(kind))
			b.ResetTimer()
			_ = rt.Parallel(func(c *core.Context) {
				for i := 0; i < b.N; i++ {
					c.Barrier()
				}
			})
		})
	}
}

// BenchmarkAblationShmem compares MRAPI's default system-level shared
// memory against the paper's malloc extension (§5A2): create + attach +
// detach + delete per op.
func BenchmarkAblationShmem(b *testing.B) {
	sys := mrapi.NewSystem(nil)
	node, err := sys.Initialize(1, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	for _, kind := range []mrapi.ShmemKind{mrapi.ShmemSysV, mrapi.ShmemMalloc} {
		b.Run(kind.String(), func(b *testing.B) {
			attrs := &mrapi.ShmemAttributes{Kind: kind}
			for i := 0; i < b.N; i++ {
				s, err := node.ShmemCreate(mrapi.Key(i+10), 256, attrs)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.Attach(node); err != nil {
					b.Fatal(err)
				}
				if err := s.Detach(node); err != nil {
					b.Fatal(err)
				}
				if err := s.Delete(node); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationNodeReuse isolates the paper's thread-pool argument
// (§5B1): forking regions from a persistent pool versus paying full
// runtime construction (worker/node creation) per region.
func BenchmarkAblationNodeReuse(b *testing.B) {
	body := func(c *core.Context) { c.Barrier() }
	b.Run("pooled", func(b *testing.B) {
		rt := mcaRuntime(b, benchThreads)
		_ = rt.Parallel(body) // warm the pool
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := rt.Parallel(body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fresh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			l, err := core.NewMCALayer(platform.T4240RDB().NewSystem())
			if err != nil {
				b.Fatal(err)
			}
			rt, err := core.New(core.WithLayer(l), core.WithNumThreads(benchThreads))
			if err != nil {
				b.Fatal(err)
			}
			if err := rt.Parallel(body); err != nil {
				b.Fatal(err)
			}
			_ = rt.Close()
		}
	})
}

// BenchmarkConcurrentRegions measures the multi-tenant fork path: N
// goroutines fork small parallel regions against one runtime, with the
// warm-team lease cache on (the default) versus off (every region pays
// full team construction + layer free — the seed's behavior). Both
// thread layers are covered; the leased rows should win from 1 caller up
// and widen the gap as callers overlap.
func BenchmarkConcurrentRegions(b *testing.B) {
	const teamSize = 4
	runtimes := []struct {
		layer string
		mk    func(b *testing.B, opts ...core.Option) *core.Runtime
	}{
		{"native", func(b *testing.B, opts ...core.Option) *core.Runtime {
			return nativeRuntime(b, teamSize, opts...)
		}},
		{"mca", func(b *testing.B, opts ...core.Option) *core.Runtime {
			return mcaRuntime(b, teamSize, opts...)
		}},
	}
	for _, rc := range runtimes {
		for _, leased := range []bool{true, false} {
			mode := "leased"
			if !leased {
				mode = "perregion"
			}
			for _, callers := range []int{1, 4, 8} {
				name := fmt.Sprintf("%s/%s/callers=%d", rc.layer, mode, callers)
				b.Run(name, func(b *testing.B) {
					rt := rc.mk(b, core.WithTeamLeasing(leased))
					var sink atomic.Int64
					b.ResetTimer()
					var wg sync.WaitGroup
					wg.Add(callers)
					for g := 0; g < callers; g++ {
						go func() {
							defer wg.Done()
							for i := 0; i < b.N; i++ {
								if err := rt.ParallelFor(64, func(j int) { sink.Add(1) }); err != nil {
									b.Error(err)
									return
								}
							}
						}()
					}
					wg.Wait()
					b.StopTimer()
					if leased {
						st := rt.Stats().Snapshot()
						b.ReportMetric(float64(st.LeaseHits)/float64(st.Regions), "lease-hit-rate")
					}
				})
			}
		}
	}
}

// BenchmarkAblationSchedule compares loop schedules on a triangularly
// imbalanced workload (cost ∝ iteration index).
func BenchmarkAblationSchedule(b *testing.B) {
	const n = 512
	work := func(i int) float64 {
		s := 0.0
		for k := 0; k < i; k++ {
			s += float64(k&7) * 0.5
		}
		return s
	}
	var sink float64
	cases := []struct {
		name string
		opts core.LoopOpts
	}{
		{"static", core.LoopOpts{Schedule: core.ScheduleStatic}},
		{"dynamic8", core.LoopOpts{Schedule: core.ScheduleDynamic, Chunk: 8}},
		{"guided", core.LoopOpts{Schedule: core.ScheduleGuided}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			rt := nativeRuntime(b, benchThreads)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = rt.Parallel(func(c *core.Context) {
					c.ForOpts(n, tc.opts, func(lo, hi int) {
						for j := lo; j < hi; j++ {
							sink += work(j)
						}
					})
				})
			}
		})
	}
	_ = sink
}

// BenchmarkTaskScheduler is the EPCC taskbench pattern (task generation +
// taskwait from every thread) run against both task schedulers — the
// per-worker stealing deques and the legacy team-shared queue kept as the
// ablation baseline — on both layers across team sizes. Each task writes
// its own slot so the measured cost is scheduling, not cache-line
// ping-pong on a shared counter.
func BenchmarkTaskScheduler(b *testing.B) {
	const tasksPerRegion = 256
	layers := []struct {
		name  string
		newRT func(b *testing.B, threads int, opts ...core.Option) *core.Runtime
	}{
		{"native", nativeRuntime},
		{"mca", mcaRuntime},
	}
	for _, kind := range []core.TaskQueue{core.TaskQueueShared, core.TaskQueueSteal} {
		for _, layer := range layers {
			for _, threads := range []int{1, 2, 4, 8} {
				name := fmt.Sprintf("%s/%s/%d", kind, layer.name, threads)
				b.Run(name, func(b *testing.B) {
					rt := layer.newRT(b, threads, core.WithTaskQueue(kind))
					slots := make([]int, threads*tasksPerRegion)
					per := tasksPerRegion / threads
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := rt.Parallel(func(c *core.Context) {
							base := c.ThreadNum() * tasksPerRegion
							for j := 0; j < per; j++ {
								slot := base + j
								c.Task(func() { slots[slot]++ })
							}
							c.TaskWait()
						}); err != nil {
							b.Fatal(err)
						}
					}
					b.StopTimer()
					s := rt.Stats().Snapshot()
					if s.Tasks == 0 {
						b.Fatal("no tasks executed")
					}
					b.ReportMetric(float64(s.Steals)/float64(b.N), "steals/op")
				})
			}
		}
	}
}

// ----- substrate micro-benchmarks -----

// BenchmarkMRAPIMutex measures the MRAPI mutex round trip against the
// bare sync.Mutex the native layer uses — the per-lock cost of the MCA
// indirection (Listing 4's code path).
func BenchmarkMRAPIMutex(b *testing.B) {
	sys := mrapi.NewSystem(nil)
	node, err := sys.Initialize(1, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	m, err := node.MutexCreate(1, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k, err := m.Lock(node, mrapi.TimeoutInfinite)
		if err != nil {
			b.Fatal(err)
		}
		if err := m.Unlock(node, k); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMCAPIMsgRoundTrip measures one connectionless send+recv.
func BenchmarkMCAPIMsgRoundTrip(b *testing.B) {
	sys := mcapi.NewSystem()
	n, err := sys.Initialize(1, 1)
	if err != nil {
		b.Fatal(err)
	}
	ep, err := n.CreateEndpoint(1, nil)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mcapi.MsgSend(ep, payload, 0, mcapi.TimeoutInfinite); err != nil {
			b.Fatal(err)
		}
		if _, _, err := mcapi.MsgRecv(ep, mcapi.TimeoutInfinite); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMCAPIPktChannel measures one packet-channel send+recv.
func BenchmarkMCAPIPktChannel(b *testing.B) {
	sys := mcapi.NewSystem()
	n1, _ := sys.Initialize(1, 1)
	n2, _ := sys.Initialize(1, 2)
	out, _ := n1.CreateEndpoint(1, nil)
	in, _ := n2.CreateEndpoint(1, nil)
	if err := mcapi.PktConnect(out, in); err != nil {
		b.Fatal(err)
	}
	send, err := mcapi.PktOpenSend(out)
	if err != nil {
		b.Fatal(err)
	}
	recv, err := mcapi.PktOpenRecv(in)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := send.Send(payload, mcapi.TimeoutInfinite); err != nil {
			b.Fatal(err)
		}
		if _, err := recv.Recv(mcapi.TimeoutInfinite); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMTAPITask measures task start + wait through the scheduler.
func BenchmarkMTAPITask(b *testing.B) {
	node := mtapi.NewNode(1, 1, &mtapi.NodeAttributes{Workers: 2})
	defer node.Shutdown()
	if _, err := node.CreateAction(1, "noop", func(any) (any, error) { return nil, nil }); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := node.Start(1, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := t.Wait(mtapi.TimeoutInfinite); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelCharge measures the virtual-time hot path (one Charge).
func BenchmarkModelCharge(b *testing.B) {
	m := perfmodel.New(platform.T4240RDB(), perfmodel.KernelProfile{Name: "x", CyclesPerUnit: 3})
	m.Fork(benchThreads)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Charge(i%benchThreads, 100)
	}
}
