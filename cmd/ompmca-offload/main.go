// Command ompmca-offload demonstrates multi-domain offload: an NPB
// EP-style counting kernel split across worker domains — each its own
// hypervisor partition running an MCA-backed OpenMP runtime — with all
// coordination riding MCAPI packet channels. A fault-injection pass
// kills one domain mid-region and shows the region still completing
// with the exact sequential result.
package main

import (
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"sync"
	"time"

	"openmpmca"
	"openmpmca/internal/trace"
)

// mix is the demo's deterministic per-index hash: the "random" stream an
// NPB EP rank would generate, reduced to an integer so results compare
// exactly across any distribution of chunks.
func mix(i int64) uint64 {
	x := uint64(i)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 29
	return x
}

// accept is EP's acceptance test, integerized: does index i's deviate
// fall inside the band?
func accept(i int64) bool { return mix(i)%1000 < 337 }

// epKernel counts accepted indices in [lo,hi) on the executing domain's
// OpenMP runtime. chunkDelay stretches each chunk so the fault-injection
// window is wide enough to watch.
func epKernel(chunkDelay time.Duration) openmpmca.OffloadFuncKernel {
	return openmpmca.OffloadFuncKernel{
		KernelName: "ep-count",
		ChunkFn: func(rt *openmpmca.Runtime, lo, hi int, arg []byte) ([]byte, error) {
			if chunkDelay > 0 {
				time.Sleep(chunkDelay)
			}
			var mu sync.Mutex
			var count uint64
			err := rt.ParallelForRange(hi-lo, func(l, h int) {
				var c uint64
				for i := l; i < h; i++ {
					if accept(int64(lo + i)) {
						c++
					}
				}
				mu.Lock()
				count += c
				mu.Unlock()
			})
			if err != nil {
				return nil, err
			}
			return binary.LittleEndian.AppendUint64(nil, count), nil
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
		if accept(int64(i)) {
			c++
		}
	}
	return c
}

// run executes the demo: one clean region, then one region with domain 0
// killed mid-flight. It returns an error on any mismatch.
func run(n, domains int, chunkDelay time.Duration, out *log.Logger) error {
	reg := openmpmca.NewOffloadRegistry()
	if err := reg.Register(epKernel(chunkDelay)); err != nil {
		return err
	}
	rec := trace.NewRecorder(8192)
	o, err := openmpmca.NewOffload(reg,
		openmpmca.WithOffloadDomains(domains),
		openmpmca.WithOffloadEventSink(rec),
	)
	if err != nil {
		return err
	}
	defer o.Close()

	out.Printf("%s", o.Render())
	want := seqCount(n)

	// Pass 1: all domains healthy.
	start := time.Now()
	res, err := o.ParallelFor("ep-count", n, nil)
	if err != nil {
		return fmt.Errorf("clean region: %w", err)
	}
	got := binary.LittleEndian.Uint64(res)
	st := o.Stats()
	out.Printf("clean region:    count=%d (%v)  remote=%d local=%d resends=%d",
		got, time.Since(start).Round(time.Millisecond), st.RemoteChunks, st.LocalChunks, st.Resends)
	if got != want {
		return fmt.Errorf("clean region count = %d, want %d", got, want)
	}

	// Pass 2: crash a domain once offload traffic is flowing; the host
	// must detect the loss via heartbeats and re-execute its chunks.
	base := st.RemoteChunks
	go func() {
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if o.Stats().RemoteChunks > base {
				_ = o.KillDomain(0)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	start = time.Now()
	res, err = o.ParallelFor("ep-count", n, nil)
	if !errors.Is(err, openmpmca.ErrDomainLost) {
		return fmt.Errorf("faulted region error = %v, want ErrDomainLost", err)
	}
	got = binary.LittleEndian.Uint64(res)
	st = o.Stats()
	out.Printf("faulted region:  count=%d (%v)  remote=%d local=%d resends=%d lost=%d",
		got, time.Since(start).Round(time.Millisecond),
		st.RemoteChunks, st.LocalChunks, st.Resends, st.DomainsLost)
	out.Printf("                 (%v)", err)
	if got != want {
		return fmt.Errorf("faulted region count = %d, want %d", got, want)
	}
	if st.DomainsLost != 1 {
		return fmt.Errorf("DomainsLost = %d, want 1", st.DomainsLost)
	}
	sum := rec.Summary()
	out.Printf("trace:           %d offload sends, %d offload recvs, %d heartbeats",
		sum.TaskSends, sum.TaskRecvs, st.Heartbeats)
	return nil
}

func main() {
	n := flag.Int("n", 400_000, "iterations per region")
	domains := flag.Int("domains", 3, "worker domains")
	delay := flag.Duration("chunk-delay", 2*time.Millisecond, "artificial per-chunk latency")
	flag.Parse()

	out := log.New(os.Stdout, "", 0)
	if err := run(*n, *domains, *delay, out); err != nil {
		fmt.Fprintln(os.Stderr, "FAIL:", err)
		os.Exit(1)
	}
	out.Printf("PASS: parallel-for split across %d MCAPI domains; domain loss tolerated", *domains)
}
