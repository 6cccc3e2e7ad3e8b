// Command ompmca-taskgraph demonstrates the MTAPI task fabric on an
// irregular graph: a Fibonacci tree decomposition whose tasks are
// expanded dynamically by the host — each completed split submits its
// children — and executed across worker domains, each its own hypervisor
// partition running an MCA-backed OpenMP runtime under a local MTAPI
// scheduler, with all coordination riding MCAPI packet channels. A
// fault-injection pass kills one domain mid-graph and shows the graph
// still completing with the exact sequential result.
//
// Parallel-for regions run on the same fabric: an NPB EP-style counting
// kernel is bound to the fabric's job registry, the killed domain is
// readmitted, and one clean region and one region during which that
// domain dies again must both return the exact EP count — the second
// together with ErrDomainLost, its lost chunks re-executed on the host.
//
// The demo scales to the board's full width (-domains 8 on the default
// T4240RDB) and exercises the peer-to-peer steal mesh: idle domains
// steal queued tasks directly from loaded peers, and
// -require-peer-steals pins each domain to one MTAPI worker, blocks most
// of them, and fails unless at least one direct mesh steal happened —
// the configuration CI's mesh-smoke job asserts.
package main

import (
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"openmpmca"
	"openmpmca/internal/taskfabric"
	"openmpmca/internal/trace"
)

// waitForever is the fabric's infinite-wait timeout (mtapi contract:
// negative forever, zero polls once, positive bounded).
const waitForever time.Duration = -1

// fibIter computes fib(n) mod 2^64 — the exact value every distribution
// of the task tree must reproduce.
func fibIter(n uint32) uint64 {
	var a, b uint64 = 0, 1
	for i := uint32(0); i < n; i++ {
		a, b = b, a+b
	}
	return a
}

// Task argument: n u32 | cutoff u32. Result: tag 0 | value u64 (leaf) or
// tag 1 | left u32 | right u32 (split: the children to submit).
func fibArg(n, cutoff uint32) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, n)
	return binary.LittleEndian.AppendUint32(buf, cutoff)
}

// fibJob is the one job in the graph. Below the cutoff it computes the
// leaf value on the executing domain's OpenMP runtime (burn work scales
// with n, so task durations are genuinely irregular); above it, it asks
// the host to split.
func fibJob(leafDelay time.Duration) openmpmca.FabricFuncJob {
	return openmpmca.FabricFuncJob{
		JobName: "fib",
		Fn: func(rt *openmpmca.Runtime, arg []byte) ([]byte, error) {
			if len(arg) != 8 {
				return nil, fmt.Errorf("bad arg (%d bytes)", len(arg))
			}
			n := binary.LittleEndian.Uint32(arg)
			cutoff := binary.LittleEndian.Uint32(arg[4:])
			if n > cutoff {
				res := []byte{1}
				res = binary.LittleEndian.AppendUint32(res, n-1)
				return binary.LittleEndian.AppendUint32(res, n-2), nil
			}
			if leafDelay > 0 {
				time.Sleep(leafDelay)
			}
			var mu sync.Mutex
			var burn uint64
			err := rt.ParallelForRange(int(n+1)*512, func(lo, hi int) {
				var c uint64
				for i := lo; i < hi; i++ {
					c += uint64(i)&7 + 1
				}
				mu.Lock()
				burn += c
				mu.Unlock()
			})
			if err != nil {
				return nil, err
			}
			_ = burn
			return binary.LittleEndian.AppendUint64([]byte{0}, fibIter(n)), nil
		},
	}
}

// expand drives one graph to completion: submit the root, then submit
// children as splits complete, summing leaf values — which telescopes to
// exactly fib(root). Returns the sum and whether any task survived a
// domain loss.
func expand(g *openmpmca.FabricGroup, root, cutoff uint32) (uint64, bool, error) {
	if _, err := g.SubmitJob("fib", fibArg(root, cutoff)); err != nil {
		return 0, false, err
	}
	var total uint64
	var recovered bool
	for {
		h, err := g.WaitAny(waitForever)
		if err == openmpmca.ErrGroupDrained {
			return total, recovered, nil
		}
		if err != nil {
			return 0, recovered, err
		}
		res, err := h.Wait(0)
		if err != nil {
			if !errors.Is(err, openmpmca.ErrDomainLost) {
				return 0, recovered, fmt.Errorf("task %d: %w", h.ID(), err)
			}
			recovered = true // re-executed after a crash; result is valid
		}
		if len(res) == 0 {
			return 0, recovered, fmt.Errorf("task %d: empty result", h.ID())
		}
		switch res[0] {
		case 0:
			if len(res) != 9 {
				return 0, recovered, fmt.Errorf("task %d: bad leaf (%d bytes)", h.ID(), len(res))
			}
			total += binary.LittleEndian.Uint64(res[1:])
		case 1:
			if len(res) != 9 {
				return 0, recovered, fmt.Errorf("task %d: bad split (%d bytes)", h.ID(), len(res))
			}
			left := binary.LittleEndian.Uint32(res[1:])
			right := binary.LittleEndian.Uint32(res[5:])
			if _, err := g.SubmitJob("fib", fibArg(left, cutoff)); err != nil {
				return 0, recovered, err
			}
			if _, err := g.SubmitJob("fib", fibArg(right, cutoff)); err != nil {
				return 0, recovered, err
			}
		default:
			return 0, recovered, fmt.Errorf("task %d: unknown result tag %d", h.ID(), res[0])
		}
	}
}

// blockJob sleeps the duration encoded in its argument — the steal
// setup: long blockers pin serial domains so queues back up behind them
// and idle peers must steal.
var blockJob = openmpmca.FabricFuncJob{
	JobName: "block",
	Fn: func(rt *openmpmca.Runtime, arg []byte) ([]byte, error) {
		if len(arg) != 8 {
			return nil, fmt.Errorf("bad arg (%d bytes)", len(arg))
		}
		time.Sleep(time.Duration(binary.LittleEndian.Uint64(arg)))
		return arg, nil
	},
}

// mix is the EP kernel's deterministic per-index hash: the "random"
// stream an NPB EP rank would generate, reduced to an integer so counts
// compare exactly across any distribution of chunks.
func mix(i int64) uint64 {
	x := uint64(i)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 29
	return x
}

// epAccept is EP's acceptance test, integerized: does index i's deviate
// fall inside the band?
func epAccept(i int64) bool { return mix(i)%1000 < 337 }

// regionIters is the EP region's iteration count.
const regionIters = 200_000

// epKernel counts accepted indices in [lo,hi) on the executing domain's
// OpenMP runtime; onChunk runs first, with lo, on every chunk execution.
func epKernel(onChunk func(lo int)) openmpmca.OffloadFuncKernel {
	return openmpmca.OffloadFuncKernel{
		KernelName: "ep-count",
		ChunkFn: func(rt *openmpmca.Runtime, lo, hi int, arg []byte) ([]byte, error) {
			onChunk(lo)
			var count atomic.Uint64
			err := rt.ParallelForRange(hi-lo, func(l, h int) {
				var c uint64
				for i := l; i < h; i++ {
					if epAccept(int64(lo + i)) {
						c++
					}
				}
				count.Add(c)
			})
			if err != nil {
				return nil, err
			}
			return binary.LittleEndian.AppendUint64(nil, count.Load()), nil
		},
		FoldFn: func(acc, part []byte) ([]byte, error) {
			if len(part) != 8 {
				return nil, fmt.Errorf("bad partial (%d bytes)", len(part))
			}
			if acc == nil {
				acc = make([]byte, 8)
			}
			binary.LittleEndian.PutUint64(acc,
				binary.LittleEndian.Uint64(acc)+binary.LittleEndian.Uint64(part))
			return acc, nil
		},
	}
}

func seqCount(n int) uint64 {
	var c uint64
	for i := 0; i < n; i++ {
		if epAccept(int64(i)) {
			c++
		}
	}
	return c
}

// run executes the demo: one clean graph, then one with domain 0 killed
// mid-expansion, then the two EP regions. It returns an error on any
// mismatch. With requirePeer, domains are serialized and blocked so the
// mesh must carry steals, and a run without any direct peer steal fails.
func run(n, cutoff uint32, domains int, leafDelay time.Duration,
	requirePeer bool, out *log.Logger) error {
	reg := openmpmca.NewJobRegistry()
	if err := reg.Register(fibJob(leafDelay)); err != nil {
		return err
	}
	if err := reg.Register(blockJob); err != nil {
		return err
	}
	// The faulted region's kill: armed before that region, it fires at
	// the start of chunk 0, which heads the region's group and so is
	// dispatched to domain 0; the domain dies with that chunk in flight.
	var fab *openmpmca.TaskFabric
	var killArmed atomic.Bool
	kernels := openmpmca.NewOffloadRegistry()
	if err := kernels.Register(epKernel(func(lo int) {
		if lo == 0 && killArmed.CompareAndSwap(true, false) {
			_ = fab.KillDomain(0)
		}
	})); err != nil {
		return err
	}
	if err := reg.RegisterKernels(kernels); err != nil {
		return err
	}
	rec := trace.NewRecorder(16384)
	opts := []openmpmca.TaskFabricOption{
		openmpmca.WithFabricDomains(domains),
		openmpmca.WithFabricHeartbeat(10 * time.Millisecond),
		openmpmca.WithFabricEventSink(rec),
	}
	if requirePeer {
		// One MTAPI worker per domain and a generous deadline: queues
		// back up behind blockers instead of draining in parallel, and
		// re-dispatch cannot masquerade as stealing.
		opts = append(opts,
			taskfabric.WithDomainWorkers(1),
			taskfabric.WithTaskDeadline(10*time.Second),
			taskfabric.WithInflight(16),
		)
	}
	fab, err := openmpmca.NewTaskFabric(reg, opts...)
	if err != nil {
		return err
	}
	defer fab.Close()

	// The imbalance for requirePeer: most domains busy with one long
	// blocker each, so the rest must steal the graph's tasks over the
	// mesh. The blockers settle in the background.
	var blockers *openmpmca.FabricGroup
	if requirePeer {
		blockers = fab.NewGroup()
		arg := binary.LittleEndian.AppendUint64(nil, uint64(300*time.Millisecond))
		for i := 0; i < domains-1; i++ {
			if _, err := blockers.SubmitJob("block", arg); err != nil {
				return err
			}
		}
	}

	out.Printf("%s", fab.Render())
	want := fibIter(n)

	// Pass 1: all domains healthy.
	start := time.Now()
	got, _, err := expand(fab.NewGroup(), n, cutoff)
	if err != nil {
		return fmt.Errorf("clean graph: %w", err)
	}
	st := fab.Stats()
	out.Printf("clean graph:     fib(%d)=%d (%v)  tasks=%d remote=%d local=%d steals=%d",
		n, got, time.Since(start).Round(time.Millisecond),
		st.Submitted, st.RemoteTasks, st.LocalTasks, st.Steals)
	if got != want {
		return fmt.Errorf("clean graph fib(%d) = %d, want %d", n, got, want)
	}

	// Pass 2: crash a domain once tasks are flowing; the host must
	// detect the loss via heartbeats and re-execute its tasks locally.
	base := st.RemoteTasks
	go func() {
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if fab.Stats().RemoteTasks > base+2 {
				_ = fab.KillDomain(0)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	start = time.Now()
	got, recovered, err := expand(fab.NewGroup(), n, cutoff)
	if err != nil {
		return fmt.Errorf("faulted graph: %w", err)
	}
	st = fab.Stats()
	out.Printf("faulted graph:   fib(%d)=%d (%v)  remote=%d local=%d resends=%d lost=%d steals=%d",
		n, got, time.Since(start).Round(time.Millisecond),
		st.RemoteTasks, st.LocalTasks, st.Resends, st.DomainsLost, st.Steals)
	if got != want {
		return fmt.Errorf("faulted graph fib(%d) = %d, want %d", n, got, want)
	}
	if st.DomainsLost != 1 {
		return fmt.Errorf("DomainsLost = %d, want 1", st.DomainsLost)
	}
	if !recovered {
		return fmt.Errorf("no task was recovered despite the domain loss")
	}
	if blockers != nil {
		if err := blockers.WaitAll(30 * time.Second); err != nil && !errors.Is(err, openmpmca.ErrDomainLost) {
			return fmt.Errorf("blockers: %w", err)
		}
	}
	st = fab.Stats()
	sum := rec.Summary()
	out.Printf("trace:           %d task sends, %d task recvs, %d steals, %d heartbeats",
		sum.TaskSends, sum.TaskRecvs, sum.TaskSteals, st.Heartbeats)
	out.Printf("mesh:            peer-steals=%d", st.Steals)
	if requirePeer && st.Steals == 0 {
		return fmt.Errorf("Steals = 0 under -require-peer-steals: the mesh never carried a direct steal")
	}

	// Regions on the same fabric, with domain 0 back in service.
	if err := fab.ReadmitDomain(0); err != nil {
		return fmt.Errorf("readmit domain 0: %w", err)
	}
	wantEP := seqCount(regionIters)
	region := func(name string) error {
		start := time.Now()
		res, err := fab.ParallelFor("ep-count", regionIters, nil)
		rs := fab.RegionStats()
		if len(res) != 8 {
			return fmt.Errorf("%s region: %d result bytes (%v)", name, len(res), err)
		}
		got := binary.LittleEndian.Uint64(res)
		out.Printf("%-16s count=%d (%v)  remote=%d local=%d chunks",
			name+" region:", got, time.Since(start).Round(time.Millisecond), rs.RemoteChunks, rs.LocalChunks)
		if got != wantEP {
			return fmt.Errorf("%s region count = %d, want %d", name, got, wantEP)
		}
		return err
	}
	if err := region("clean"); err != nil {
		return fmt.Errorf("clean region: %w", err)
	}
	killArmed.Store(true)
	err = region("faulted")
	out.Printf("                 (%v)", err)
	if !errors.Is(err, openmpmca.ErrDomainLost) {
		return fmt.Errorf("faulted region error = %v, want ErrDomainLost", err)
	}
	if st := fab.Stats(); st.DomainsLost != 2 {
		return fmt.Errorf("DomainsLost = %d after the faulted region, want 2", st.DomainsLost)
	}
	return nil
}

func main() {
	n := flag.Uint("n", 30, "fibonacci index to decompose")
	cutoff := flag.Uint("cutoff", 22, "sequential leaf cutoff")
	domains := flag.Int("domains", 3, "worker domains")
	leafDelay := flag.Duration("leaf-delay", 2*time.Millisecond, "artificial per-leaf latency")
	requirePeer := flag.Bool("require-peer-steals", false, "serialize domains, add blockers, and fail unless a direct peer steal happened")
	flag.Parse()
	if *cutoff >= *n {
		fmt.Fprintln(os.Stderr, "FAIL: cutoff must be below n")
		os.Exit(1)
	}
	if *requirePeer && *domains < 2 {
		fmt.Fprintln(os.Stderr, "FAIL: -require-peer-steals needs at least 2 domains")
		os.Exit(1)
	}

	out := log.New(os.Stdout, "", 0)
	if err := run(uint32(*n), uint32(*cutoff), *domains, *leafDelay, *requirePeer, out); err != nil {
		fmt.Fprintln(os.Stderr, "FAIL:", err)
		os.Exit(1)
	}
	out.Printf("PASS: irregular task graph and parallel-for regions across %d MCAPI domains; domain loss tolerated", *domains)
}
