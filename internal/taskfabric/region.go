package taskfabric

import (
	"errors"
	"fmt"
	"time"

	"openmpmca/internal/core"
	"openmpmca/internal/oerrors"
	"openmpmca/internal/offload"
	"openmpmca/internal/trace"
)

// Parallel-for regions on the fabric. A region's iteration space is cut
// into chunks; the head chunks become one Group of chunk tasks — each a
// plain fabric task whose job looks the kernel up and runs
// Kernel.Chunk on the executing domain's runtime — while the calling
// goroutine runs the tail chunks on the host runtime. Partial results
// fold in ascending chunk index on the host, so the result does not
// depend on which executor ran what. Deadlines, retries, stealing, loss
// recovery and readmission are the fabric's; nothing here dispatches.
// Regions and jobs share a fabric: kernels bind to it through its job
// registry (Registry.RegisterKernels).

// MaxRegionIters caps a region's iteration count. A region holds its
// executors until its last chunk folds, and each chunk must beat the
// task deadline (1 s by default) or be re-sent; 2²⁹ iterations of the
// cheapest kernel, the job service's builtin vecsum, take ≈ 0.35 s on
// one core of a 2-vCPU x86-64 VM. Larger regions are refused with an
// Admission/region_too_large error before a chunk is cut.
const MaxRegionIters = 1 << 29

// chunkJobName is the job every region chunk executes.
const chunkJobName = "offload.chunk"

// chunkJob runs one chunk descriptor against the kernel registry.
type chunkJob struct{ kernels *offload.Registry }

func (chunkJob) Name() string { return chunkJobName }

func (j chunkJob) Execute(rt *core.Runtime, arg []byte) ([]byte, error) {
	d, err := offload.DecodeChunkDesc(arg)
	if err != nil {
		return nil, err
	}
	k, ok := j.kernels.Lookup(d.Kernel)
	if !ok {
		return nil, fmt.Errorf("unknown kernel %q", d.Kernel)
	}
	return k.Chunk(rt, int(d.Lo), int(d.Hi), d.Arg)
}

// RegisterKernels binds a kernel registry to the fabric built over r by
// registering the offload.chunk job, which resolves every chunk
// descriptor against kernels. A registry binds at most one.
func (r *Registry) RegisterKernels(kernels *offload.Registry) error {
	if kernels == nil {
		return fmt.Errorf("%w: taskfabric: nil kernel registry", core.ErrInvalidOption)
	}
	return r.Register(chunkJob{kernels})
}

// Kernels returns the kernel registry bound with RegisterKernels, or nil.
func (r *Registry) Kernels() *offload.Registry {
	j, _ := r.Lookup(chunkJobName)
	cj, _ := j.(chunkJob)
	return cj.kernels
}

// NewOffloader builds a fabric that runs regions of kernels and nothing
// else. Its defaults differ from NewFabric's in two ways: partitions are
// named offload-*, and each domain runs one chunk at a time (a chunk
// kernel forks the partition's whole team). opts apply over them.
func NewOffloader(kernels *offload.Registry, opts ...Option) (*Fabric, error) {
	jobs := NewRegistry()
	if err := jobs.RegisterKernels(kernels); err != nil {
		return nil, err
	}
	regionDefaults := func(c *config) error {
		c.namePrefix = "offload"
		c.mtWorkers = 1
		return nil
	}
	return NewFabric(jobs, append([]Option{regionDefaults}, opts...)...)
}

// RegionStats is a point-in-time copy of a fabric's region counters,
// plus the fabric's own recovery counters (jobs' included where the
// fabric runs jobs too). It is JSON-taggable: it serializes as the
// "offload" section of the unified openmpmca.Snapshot.
type RegionStats struct {
	Regions      uint64 `json:"regions"`       // ParallelFor regions run
	RemoteChunks uint64 `json:"remote_chunks"` // chunks whose accepted result a worker domain delivered
	LocalChunks  uint64 `json:"local_chunks"`  // chunks whose accepted result the host computed
	Resends      uint64 `json:"resends"`       // task re-dispatches (deadline or domain loss)
	DomainsLost  uint64 `json:"domains_lost"`  // worker domains declared dead
	Heartbeats   uint64 `json:"heartbeats"`    // pongs received
	PingDrops    uint64 `json:"ping_drops"`    // pings dropped by a full send queue
	Readmissions uint64 `json:"readmissions"`  // lost domains readmitted after restart
}

// RegionStats snapshots the region counters. Chunks are counted by the
// executor of each accepted result, not from the fabric's task counters,
// which also count jobs.
func (f *Fabric) RegionStats() RegionStats {
	return RegionStats{
		Regions:      f.st.regions.Load(),
		RemoteChunks: f.st.remoteChunks.Load(),
		LocalChunks:  f.st.localChunks.Load(),
		Resends:      f.st.resends.Load(),
		DomainsLost:  f.st.domainsLost.Load(),
		Heartbeats:   f.st.heartbeats.Load(),
		PingDrops:    f.st.pingDrops.Load(),
		Readmissions: f.st.readmissions.Load(),
	}
}

// ParallelFor runs kernel over iterations [0,n). The kernel must be
// registered; arg is passed opaquely to every chunk. Partial results are
// folded in ascending chunk order, so the result is deterministic
// regardless of which domain computed which chunk.
//
// If a worker domain dies mid-region its chunks are re-executed on the
// host: the full result is still returned, together with an error
// wrapping ErrDomainLost.
func (f *Fabric) ParallelFor(kernel string, n int, arg []byte) ([]byte, error) {
	return f.ParallelForObserved(kernel, n, arg, nil)
}

// ParallelForObserved is ParallelFor with a progress callback: onChunk
// (may be nil) is called on the calling goroutine once per chunk as its
// result is accepted, with the chunk's index, the region's chunk count
// and the executor (a worker domain's 0-based index, -1 = host).
func (f *Fabric) ParallelForObserved(kernel string, n int, arg []byte,
	onChunk func(chunk, total, domain int)) ([]byte, error) {
	if f.closed.Load() {
		return nil, ErrClosed
	}
	k, ok := offload.Kernel(nil), false
	if kernels := f.reg.Kernels(); kernels != nil {
		k, ok = kernels.Lookup(kernel)
	}
	if !ok {
		return nil, oerrors.Errorf(oerrors.Internal, oerrors.CodeUnknownJob, "offload: unknown kernel %q", kernel)
	}
	if n <= 0 {
		return nil, nil
	}
	if n > MaxRegionIters {
		return nil, oerrors.Errorf(oerrors.Admission, oerrors.CodeRegionTooLarge,
			"offload: kernel %q: %d iterations, over the region cap of %d", kernel, n, MaxRegionIters)
	}
	f.st.regions.Add(1)

	executors := len(f.links) + 1
	chunkIters := f.cfg.chunkIters
	if chunkIters <= 0 {
		chunkIters = (n-1)/(4*executors) + 1 // ⌈n / 4·executors⌉ without overflow
	}
	nc := (n + chunkIters - 1) / chunkIters
	bounds := func(ci int) (lo, hi int) {
		lo = ci * chunkIters
		return lo, min(lo+chunkIters, n)
	}
	parts := make([][]byte, nc)
	accept := func(ci, domain int, part []byte) {
		parts[ci] = part
		if domain < 0 {
			f.st.localChunks.Add(1)
		} else {
			f.st.remoteChunks.Add(1)
		}
		if onChunk != nil {
			onChunk(ci, nc, domain)
		}
	}

	// The host's share is static: one executor's worth of chunks, taken
	// from the tail. They cost no wire hop, which on a region of a few
	// short chunks is most of the cost (EXPERIMENTS.md, regions on the
	// fabric); everything ahead of them goes to the group.
	grouped := nc - nc/executors
	g := f.NewGroup()
	index := make(map[*TaskHandle]int, grouped)
	fail := func(err error) ([]byte, error) {
		g.Cancel()
		return nil, fmt.Errorf("offload: kernel %q: %w", kernel, err)
	}
	descs := make([][]byte, grouped)
	for ci := range descs {
		lo, hi := bounds(ci)
		descs[ci] = offload.EncodeChunkDesc(offload.ChunkDesc{Kernel: kernel, Lo: int64(lo), Hi: int64(hi), Arg: arg})
	}
	handles, err := f.submitAll(chunkJobName, descs, g, nil)
	for _, d := range descs {
		offload.RecycleFrame(d)
	}
	if err != nil {
		return fail(err)
	}
	for ci, h := range handles {
		index[h] = ci
	}

	// collect accepts group chunks as they settle: with wait zero those
	// already settled, otherwise all that remain. A chunk recovered from a
	// lost domain carries its valid result and an ErrDomainLost error; the
	// first such error becomes the region's.
	var lost error
	collect := func(wait time.Duration) error {
		for {
			h, err := g.WaitAny(wait)
			if err != nil {
				return nil // nothing (more) to collect: poll came up empty, or group drained
			}
			part, err := h.Wait(0)
			if err != nil {
				if !errors.Is(err, ErrDomainLost) {
					return err
				}
				if lost == nil {
					lost = err
				}
			}
			accept(index[h], h.Domain(), part)
		}
	}

	for ci := grouped; ci < nc; ci++ {
		lo, hi := bounds(ci)
		ev := trace.FabricEvent{Kind: trace.EvTaskSend, Task: taskSeq.Add(1), Domain: -1, Victim: -1}
		if f.cfg.sink != nil {
			f.cfg.sink.Event(ev)
		}
		part, err := k.Chunk(f.net.Host, lo, hi, arg)
		if err != nil {
			return fail(oerrors.Errorf(oerrors.Internal, oerrors.CodeJobFailed, "failed on the host: %w", err))
		}
		if f.cfg.sink != nil {
			ev.Kind = trace.EvTaskRecv
			f.cfg.sink.Event(ev)
		}
		accept(ci, -1, part)
		if err := collect(0); err != nil {
			return fail(err)
		}
	}
	if err := collect(TimeoutInfinite); err != nil {
		return fail(err)
	}

	var acc []byte
	for ci, part := range parts {
		var err error
		if acc, err = k.Fold(acc, part); err != nil {
			return nil, oerrors.Errorf(oerrors.Internal, oerrors.CodeJobFailed,
				"offload: kernel %q: fold chunk %d: %w", kernel, ci, err)
		}
	}
	return acc, lost
}
