package taskfabric

import (
	"errors"
	"fmt"
	"sync/atomic"
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

// ErrOffloaderClosed is returned by regions on a closed Offloader.
// Classified Cancel/offload_closed.
var ErrOffloaderClosed = oerrors.Sentinel(oerrors.Cancel, oerrors.CodeOffloadClosed,
	"offload: offloader closed")

// chunkJobName is the one job a region fabric executes.
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

// RegionStats is a point-in-time copy of an Offloader's counters, derived
// from its fabric's plus the region and host-share counts kept here. It
// is JSON-taggable: it serializes as the "offload" section of the
// unified openmpmca.Snapshot.
type RegionStats struct {
	Regions      uint64 `json:"regions"`       // ParallelFor regions run
	RemoteChunks uint64 `json:"remote_chunks"` // chunks completed by worker domains
	LocalChunks  uint64 `json:"local_chunks"`  // chunks completed on the host
	Resends      uint64 `json:"resends"`       // chunk re-dispatches (deadline or domain loss)
	DomainsLost  uint64 `json:"domains_lost"`  // worker domains declared dead
	Heartbeats   uint64 `json:"heartbeats"`    // pongs received
	PingDrops    uint64 `json:"ping_drops"`    // pings dropped by a full send queue
	Readmissions uint64 `json:"readmissions"`  // lost domains readmitted after restart
}

// Offloader runs parallel-for regions over a private Fabric: its own
// board partitions, its own worker domains. It is safe for concurrent
// use, and concurrent regions run concurrently.
type Offloader struct {
	f       *Fabric
	kernels *offload.Registry

	regions    atomic.Uint64
	hostChunks atomic.Uint64 // chunks run by calling goroutines
}

// NewOffloader builds the region fabric. It takes the fabric's Options
// over two different defaults: partitions are named offload-*, and each
// domain runs one chunk at a time (a chunk kernel forks the partition's
// whole team).
func NewOffloader(kernels *offload.Registry, opts ...Option) (*Offloader, error) {
	if kernels == nil {
		return nil, fmt.Errorf("%w: offload: nil registry", core.ErrInvalidOption)
	}
	cfg := defaultConfig()
	cfg.namePrefix = "offload"
	cfg.mtWorkers = 1
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	jobs := NewRegistry()
	if err := jobs.Register(chunkJob{kernels}); err != nil {
		return nil, err
	}
	f, err := newFabric(jobs, cfg)
	if err != nil {
		return nil, err
	}
	return &Offloader{f: f, kernels: kernels}, nil
}

// Render draws the hypervisor partition map.
func (o *Offloader) Render() string { return o.f.Render() }

// DomainInfos snapshots every worker domain's identity, liveness and
// occupancy.
func (o *Offloader) DomainInfos() []DomainInfo { return o.f.DomainInfos() }

// KillDomain crashes worker domain i (0-based) for fault injection. The
// host is not told: it finds out through missed heartbeats.
func (o *Offloader) KillDomain(i int) error { return o.f.KillDomain(i) }

// ReadmitDomain returns a lost, restarted domain to service.
func (o *Offloader) ReadmitDomain(i int) error { return o.f.ReadmitDomain(i) }

// Close shuts the region fabric down. Idempotent.
func (o *Offloader) Close() error { return o.f.Close() }

// Stats snapshots the region counters.
func (o *Offloader) Stats() RegionStats {
	fs := o.f.Stats()
	return RegionStats{
		Regions:      o.regions.Load(),
		RemoteChunks: fs.RemoteTasks,
		LocalChunks:  fs.LocalTasks + o.hostChunks.Load(),
		Resends:      fs.Resends,
		DomainsLost:  fs.DomainsLost,
		Heartbeats:   fs.Heartbeats,
		PingDrops:    fs.PingDrops,
		Readmissions: fs.Readmissions,
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
func (o *Offloader) ParallelFor(kernel string, n int, arg []byte) ([]byte, error) {
	return o.ParallelForObserved(kernel, n, arg, nil)
}

// ParallelForObserved is ParallelFor with a progress callback: onChunk
// (may be nil) is called on the calling goroutine once per chunk as its
// result is accepted, with the chunk's index, the region's chunk count
// and the executor (a worker domain's 0-based index, -1 = host).
func (o *Offloader) ParallelForObserved(kernel string, n int, arg []byte,
	onChunk func(chunk, total, domain int)) ([]byte, error) {
	f := o.f
	if f.closed.Load() {
		return nil, ErrOffloaderClosed
	}
	k, ok := o.kernels.Lookup(kernel)
	if !ok {
		return nil, oerrors.Errorf(oerrors.Internal, oerrors.CodeUnknownJob, "offload: unknown kernel %q", kernel)
	}
	if n <= 0 {
		return nil, nil
	}
	o.regions.Add(1)

	executors := len(f.links) + 1
	chunkIters := f.cfg.chunkIters
	if chunkIters <= 0 {
		chunkIters = max(1, (n+4*executors-1)/(4*executors))
	}
	nc := (n + chunkIters - 1) / chunkIters
	bounds := func(ci int) (lo, hi int) {
		lo = ci * chunkIters
		return lo, min(lo+chunkIters, n)
	}
	parts := make([][]byte, nc)
	accept := func(ci, domain int, part []byte) {
		parts[ci] = part
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
		if errors.Is(err, ErrClosed) {
			err = ErrOffloaderClosed
		}
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
		o.hostChunks.Add(1)
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
