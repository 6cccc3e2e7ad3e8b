// Package taskfabric distributes MTAPI-style irregular tasks across
// multiple runtime domains — separate core.Runtime instances, each bound
// to its own hypervisor partition of the board — joined only by MCAPI
// packet channels.
//
// The host submits jobs by name; task descriptors travel to worker
// domains as wire frames (internal/offload's task codec), where a local
// MTAPI node schedules them onto the partition's OpenMP runtime. Results
// flow back on the result channel, one frame per packet. Idle domains
// steal from each other directly: an idle worker asks the most loaded
// peer, over a worker-to-worker mesh channel, for half its unstarted
// tasks (peersteal.go). When that peer link is dead or the request goes
// unanswered, the worker simply asks again later; the victim's queue
// drains locally either way. Per-task deadlines and retries handle slow
// domains; heartbeat loss detection reclaims a dead domain's in-flight
// tasks and re-executes them locally on the host, so a submitted graph
// always completes — the loss surfaces as an ErrDomainLost-wrapped
// error alongside the full result.
//
// Parallel-for regions ride the same engine: Fabric.ParallelFor
// (region.go) submits a region's chunks as one task group beside the
// fabric's jobs and folds the results in chunk order on the host.
//
// This completes the paper's MCA trio in load-bearing form: MRAPI under
// each runtime (core.MCALayer), MCAPI as the inter-domain transport, and
// MTAPI as the task-management layer on both sides of the wire.
package taskfabric

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"openmpmca/internal/core"
	"openmpmca/internal/mcapi"
	"openmpmca/internal/oerrors"
	"openmpmca/internal/offload"
	"openmpmca/internal/perfmodel"
	"openmpmca/internal/platform"
	"openmpmca/internal/trace"
)

// ErrDomainLost marks work that survived a worker domain dying — the
// result is complete and correct, the lost domain's tasks were
// re-executed. Tasks and regions share the one sentinel.
var ErrDomainLost = offload.ErrDomainLost

var (
	// ErrClosed is returned by operations on a closed Fabric.
	// Classified Cancel/fabric_closed.
	ErrClosed = oerrors.Sentinel(oerrors.Cancel, oerrors.CodeFabricClosed,
		"taskfabric: fabric closed")
	// ErrCanceled marks tasks canceled via Group.Cancel. Classified
	// Cancel/task_canceled.
	ErrCanceled = oerrors.Sentinel(oerrors.Cancel, oerrors.CodeTaskCanceled,
		"taskfabric: task canceled")
	// ErrTimeout is returned by bounded waits that expire. Classified
	// Transport/timeout.
	ErrTimeout = oerrors.Sentinel(oerrors.Transport, oerrors.CodeTimeout,
		"taskfabric: timeout")
	// ErrGroupDrained is returned by WaitAny when the group has no
	// outstanding and no undelivered completed tasks. Classified
	// Internal/group_drained.
	ErrGroupDrained = oerrors.Sentinel(oerrors.Internal, oerrors.CodeGroupDrained,
		"taskfabric: group has no outstanding tasks")
)

// TimeoutInfinite waits forever. The wait contract matches
// internal/mtapi: negative waits forever, zero polls once (ErrTimeout if
// not ready), positive bounds the wait.
const TimeoutInfinite time.Duration = -1

// EventSink receives the fabric's event records: every send, receive
// and steal, each once. trace.Recorder implements it.
type EventSink interface {
	Event(ev trace.FabricEvent)
}

// maxRetries is how many re-dispatches a task gets before it is pinned
// to local execution on the host.
const maxRetries = 2

// config collects the tunables behind the Options.
type config struct {
	namePrefix string // hypervisor partition names: <prefix>-host, <prefix>-dom<i>
	domains    int
	board      *platform.Board
	chunkIters int // regions only: iterations per chunk, 0 = sized per region
	deadline   time.Duration
	heartbeat  time.Duration
	lostAfter  time.Duration
	inflight   int
	mtWorkers  int
	sink       EventSink
}

// Option configures NewFabric.
type Option func(*config) error

func defaultConfig() config {
	return config{
		namePrefix: "fabric",
		domains:    3,
		board:      platform.T4240RDB(),
		deadline:   time.Second,
		heartbeat:  20 * time.Millisecond,
		inflight:   8,
	}
}

// WithDomains sets the number of worker domains (default 3).
func WithDomains(n int) Option {
	return func(c *config) error {
		if n < 1 || n > 64 {
			return fmt.Errorf("%w: taskfabric: WithDomains(%d): want 1..64", core.ErrInvalidOption, n)
		}
		c.domains = n
		return nil
	}
}

// WithBoard selects the simulated board to partition (default T4240RDB).
func WithBoard(b *platform.Board) Option {
	return func(c *config) error {
		if b == nil {
			return fmt.Errorf("%w: taskfabric: WithBoard(nil)", core.ErrInvalidOption)
		}
		c.board = b
		return nil
	}
}

// WithChunkIters fixes the iterations per parallel-for chunk; 0 (the
// default) sizes chunks so each executor sees about four.
func WithChunkIters(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("%w: taskfabric: WithChunkIters(%d): want >= 0", core.ErrInvalidOption, n)
		}
		c.chunkIters = n
		return nil
	}
}

// WithTaskDeadline bounds how long the host waits for a dispatched
// task's result before re-dispatching it (default 1s).
func WithTaskDeadline(d time.Duration) Option {
	return func(c *config) error {
		if d <= 0 {
			return fmt.Errorf("%w: taskfabric: WithTaskDeadline(%v): want > 0", core.ErrInvalidOption, d)
		}
		c.deadline = d
		return nil
	}
}

// WithHeartbeat sets the ping period; a domain missing pongs for eight
// periods is declared lost (default 20ms).
func WithHeartbeat(period time.Duration) Option {
	return func(c *config) error {
		if period <= 0 {
			return fmt.Errorf("%w: taskfabric: WithHeartbeat(%v): want > 0", core.ErrInvalidOption, period)
		}
		c.heartbeat = period
		return nil
	}
}

// WithInflight sets how many task descriptors may be in flight to one
// domain at a time (default 8).
func WithInflight(n int) Option {
	return func(c *config) error {
		if n < 1 || n > 64 {
			return fmt.Errorf("%w: taskfabric: WithInflight(%d): want 1..64", core.ErrInvalidOption, n)
		}
		c.inflight = n
		return nil
	}
}

// WithDomainWorkers sets each domain's MTAPI scheduler pool size;
// 0 (the default) uses the partition's hardware threads, capped at 4.
func WithDomainWorkers(n int) Option {
	return func(c *config) error {
		if n < 0 || n > 64 {
			return fmt.Errorf("%w: taskfabric: WithDomainWorkers(%d): want 0..64", core.ErrInvalidOption, n)
		}
		c.mtWorkers = n
		return nil
	}
}

// WithEventSink installs the global sink for every task's event
// records.
func WithEventSink(s EventSink) Option {
	return func(c *config) error {
		c.sink = s
		return nil
	}
}

// counters are the Fabric's monotonically increasing stats.
type counters struct {
	submitted    atomic.Uint64
	remoteTasks  atomic.Uint64
	localTasks   atomic.Uint64
	resends      atomic.Uint64
	steals       atomic.Uint64
	canceled     atomic.Uint64
	domainsLost  atomic.Uint64
	readmissions atomic.Uint64
	heartbeats   atomic.Uint64
	pingDrops    atomic.Uint64

	// Region counters (region.go).
	regions      atomic.Uint64
	remoteChunks atomic.Uint64
	localChunks  atomic.Uint64
}

// Stats is a point-in-time copy of the fabric counters. It is
// JSON-taggable: it serializes as the "fabric" section of the unified
// openmpmca.Snapshot.
type Stats struct {
	Submitted         uint64 `json:"submitted"`          // tasks accepted by SubmitJob
	RemoteTasks       uint64 `json:"remote_tasks"`       // tasks completed by worker domains
	LocalTasks        uint64 `json:"local_tasks"`        // tasks completed by the host's local executor
	Resends           uint64 `json:"resends"`            // task re-dispatches (deadline or domain loss)
	Steals            uint64 `json:"steals"`             // queued tasks migrated between domains over the peer mesh
	PeerSteals        uint64 `json:"peer_steals"`        // equals Steals: the mesh is the only steal path; removed with the taskfabric.peer_steals_per_kjob row in the next benchmark-only change
	BrokeredFallbacks uint64 `json:"brokered_fallbacks"` // always 0: there is no host-brokered steal; removed with the taskfabric.brokered_fallbacks row in the next benchmark-only change
	RmemBytesMoved    uint64 `json:"rmem_bytes_moved"`   // always 0 since PR 23; removed with the taskfabric.rmem_bytes_per_job row in the next benchmark-only PR
	Canceled          uint64 `json:"canceled"`           // tasks canceled via Group.Cancel
	DomainsLost       uint64 `json:"domains_lost"`       // worker domains declared dead
	Readmissions      uint64 `json:"readmissions"`       // lost domains readmitted after restart
	Heartbeats        uint64 `json:"heartbeats"`         // pongs received
	PingDrops         uint64 `json:"ping_drops"`         // pings dropped by a full send queue
}

// TaskHandle tracks one submitted task. Waiters may call Wait from any
// goroutine.
type TaskHandle struct {
	id  uint64
	job string

	mu   sync.Mutex
	fin  bool
	done chan struct{} // made by the first Wait that must block; closed when the task settles
	dom  int           // executor that delivered the result; -1 = host
	res  []byte
	err  error
}

// ID returns the fabric-wide task ID.
func (h *TaskHandle) ID() uint64 { return h.id }

// Job returns the job name the task executes.
func (h *TaskHandle) Job() string { return h.job }

// Domain reports which executor delivered the settled task's result: a
// worker domain's 0-based index, or -1 for the host (local execution,
// cancellation, closure). Meaningful only once the task has settled.
func (h *TaskHandle) Domain() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.dom
}

func (h *TaskHandle) finish(dom int, res []byte, err error) {
	h.mu.Lock()
	h.fin, h.dom, h.res, h.err = true, dom, res, err
	done := h.done
	h.mu.Unlock()
	if done != nil {
		close(done)
	}
}

func (h *TaskHandle) errOf() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.err
}

// Wait blocks up to timeout for the task's result, under the package
// timeout contract. A task recovered from a lost domain returns its
// (valid) result together with an ErrDomainLost-wrapped error.
func (h *TaskHandle) Wait(timeout time.Duration) ([]byte, error) {
	h.mu.Lock()
	if !h.fin {
		if timeout == 0 {
			h.mu.Unlock()
			return nil, ErrTimeout
		}
		if h.done == nil {
			h.done = make(chan struct{})
		}
		done := h.done
		h.mu.Unlock()
		if timeout < 0 {
			<-done
		} else {
			t := time.NewTimer(timeout)
			defer t.Stop()
			select {
			case <-done:
			case <-t.C:
				return nil, ErrTimeout
			}
		}
		h.mu.Lock()
	}
	defer h.mu.Unlock()
	return h.res, h.err
}

// task is the fabric's record of one submitted task, its handle
// included.
type task struct {
	TaskHandle
	arg         []byte
	g           *Group
	obs         func(trace.FabricEvent) // this task's observer; nil for none
	complete    func([]byte, error)     // this task's completion; nil for none
	attempt     uint32
	forcedLocal bool // exhausted retries or recovered: host executes it
	recovered   bool // reclaimed from a lost domain

	// Loss provenance, captured when the task is reclaimed from a dead
	// domain so the surfaced error names the domain and its silence.
	lostDom     int
	lostName    string
	lostSilence time.Duration
}

// flight tracks one dispatched task: which executor has it, when it was
// dispatched and when the host gives up waiting. Local flights (dom -1)
// have no deadline.
type flight struct {
	dom    int
	sent   time.Time
	expiry time.Time
}

// settlement is one task's outcome, decided under Fabric.mu and
// delivered once the deciding goroutine has released it.
type settlement struct {
	t   *task // nil: nothing settled
	dom int
	res []byte
	err error
}

// deliver settles the handle, runs the task's completion, then tells
// its group, so a member WaitAny returns is already settled.
func (s settlement) deliver() {
	t := s.t
	if t == nil {
		return
	}
	t.finish(s.dom, s.res, s.err)
	if t.complete != nil {
		t.complete(s.res, s.err)
	}
	if t.g != nil {
		t.g.taskDone(&t.TaskHandle)
	}
}

// hostLink is the host's view of one worker domain. occ counts the
// tasks outstanding on it, under Fabric.mu, and ewma folds in observed
// dispatch-to-result service times per completed remote task.
type hostLink struct {
	w      *worker
	name   string
	cpus   int
	cmd    *mcapi.PktSendHandle
	res    *mcapi.PktRecvHandle
	hbTo   *mcapi.Endpoint
	hbFrom *mcapi.Endpoint
	health *offload.HealthState
	occ    int
	ewma   *perfmodel.ServiceEWMA
}

// Fabric owns a partitioned board: one host runtime plus N worker
// domains, joined only by MCAPI, executing MTAPI-style jobs. It is safe
// for concurrent use.
type Fabric struct {
	cfg config
	reg *Registry
	net *offload.Net

	workers []*worker
	links   []*hostLink

	localQ chan *task
	stopCh chan struct{}
	wg     sync.WaitGroup

	// mu guards the dispatch state. No goroutine owns it: a submit
	// places and sends on the submitting goroutine, a link's receiver
	// settles the results it reads, and the local executor, the health
	// monitor, ReadmitDomain, Group.Cancel, the tick and Close each
	// take mu for their change. Sends under mu never block, and what a
	// holder settles is delivered only after it releases mu.
	mu      sync.Mutex
	pending []*task           // submitted or reclaimed, not yet placed
	tasks   map[uint64]*task  // every unsettled task
	infl    map[uint64]flight // every placed task, by executor
	noticed []bool            // noticed[li]: li's loss notice is taken and li not yet readmitted
	parked  []chan error      // parked[li]: a readmission of li waiting for that notice
	extra   []int             // pump scratch: this pump's placements per domain
	plans   [][]*task         // pump scratch: each domain's batch
	batch   offload.Batcher

	groupSeq atomic.Uint64
	closed   atomic.Bool
	st       counters
}

// taskSeq mints task IDs. It is process-wide, not per Fabric, so one
// event sink shared by several fabrics (a job fabric and a separate
// region fabric, as jobservice.WithOffloader wires them) never sees two
// live tasks under one ID.
var taskSeq atomic.Uint64

// NewFabric partitions the configured board, boots the host and worker
// runtimes, wires the MCAPI fabric, starts each domain's MTAPI node and
// the host's receivers, local executor, tick and health monitor.
func NewFabric(reg *Registry, opts ...Option) (*Fabric, error) {
	if reg == nil {
		return nil, fmt.Errorf("%w: taskfabric: nil registry", core.ErrInvalidOption)
	}
	cfg := defaultConfig()
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	cfg.lostAfter = 8 * cfg.heartbeat

	net, err := offload.BuildNet(offload.NetConfig{
		Domains:    cfg.domains,
		Board:      cfg.board,
		NamePrefix: cfg.namePrefix,
		CmdDepth:   cfg.inflight + 4,
		ResDepth:   cfg.inflight + 4,
		PeerDepth:  cfg.inflight + 4,
	})
	if err != nil {
		return nil, err
	}

	f := &Fabric{
		cfg:     cfg,
		reg:     reg,
		net:     net,
		localQ:  make(chan *task, 4),
		stopCh:  make(chan struct{}),
		tasks:   make(map[uint64]*task),
		infl:    make(map[uint64]flight),
		noticed: make([]bool, cfg.domains),
		parked:  make([]chan error, cfg.domains),
		extra:   make([]int, cfg.domains),
		plans:   make([][]*task, cfg.domains),
	}
	now := time.Now().UnixNano()
	for _, nl := range net.Links {
		mtWorkers := cfg.mtWorkers
		if mtWorkers == 0 {
			mtWorkers = nl.CPUs
			if mtWorkers > 4 {
				mtWorkers = 4
			}
		}
		w, werr := newWorker(nl, reg, mtWorkers)
		if werr != nil {
			_ = f.teardownNet()
			return nil, werr
		}
		h := &offload.HealthState{}
		h.RecordPong(now)
		f.workers = append(f.workers, w)
		f.links = append(f.links, &hostLink{
			w:      w,
			name:   nl.Name,
			cpus:   nl.CPUs,
			cmd:    nl.CmdSend,
			res:    nl.ResRecv,
			hbTo:   nl.HBEp,
			hbFrom: nl.HBHost,
			health: h,
			ewma:   perfmodel.NewServiceEWMA(perfmodel.DefaultEWMAAlpha),
		})
	}
	for _, w := range f.workers {
		w.start()
	}
	f.wg.Add(3 + len(f.links))
	go f.ticker()
	go f.localExec()
	go f.healthLoop()
	for i := range f.links {
		go f.receiver(i)
	}
	return f, nil
}

// teardownNet releases a partially built fabric before any goroutines
// started.
func (f *Fabric) teardownNet() error {
	for _, w := range f.workers {
		w.mt.Shutdown()
	}
	err := f.net.Host.Close()
	for _, nl := range f.net.Links {
		_ = nl.RT.Close()
	}
	for _, p := range f.net.HV.Partitions() {
		_ = f.net.HV.Stop(p.Name)
	}
	return err
}

// Domains reports the number of worker domains.
func (f *Fabric) Domains() int { return len(f.links) }

// Board returns the partitioned board.
func (f *Fabric) Board() *platform.Board { return f.cfg.board }

// Render describes the hypervisor partitioning.
func (f *Fabric) Render() string { return f.net.HV.Render() }

// Stats snapshots the fabric counters.
func (f *Fabric) Stats() Stats {
	return Stats{
		Submitted:    f.st.submitted.Load(),
		RemoteTasks:  f.st.remoteTasks.Load(),
		LocalTasks:   f.st.localTasks.Load(),
		Resends:      f.st.resends.Load(),
		Steals:       f.st.steals.Load(),
		PeerSteals:   f.st.steals.Load(),
		Canceled:     f.st.canceled.Load(),
		DomainsLost:  f.st.domainsLost.Load(),
		Readmissions: f.st.readmissions.Load(),
		Heartbeats:   f.st.heartbeats.Load(),
		PingDrops:    f.st.pingDrops.Load(),
	}
}

// DomainInfo describes one worker domain for introspection surfaces (the
// job service's GET /v1/domains): identity, liveness, the tasks
// currently outstanding on it, and the EWMA of observed
// dispatch-to-result service times.
type DomainInfo struct {
	ID          int     `json:"id"`   // 0-based link index
	Name        string  `json:"name"` // hypervisor partition name
	CPUs        int     `json:"cpus"`
	Live        bool    `json:"live"`
	Outstanding int     `json:"outstanding"`  // tasks dispatched, result pending
	EWMATaskNs  float64 `json:"ewma_task_ns"` // observed ns per remote task, 0 until primed
	EWMASamples uint64  `json:"ewma_samples"`
}

// DomainInfos snapshots every worker domain's identity, liveness,
// occupancy and adaptive service estimate.
func (f *Fabric) DomainInfos() []DomainInfo {
	out := make([]DomainInfo, len(f.links))
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, l := range f.links {
		ns, _ := l.ewma.Value()
		out[i] = DomainInfo{
			ID:          i,
			Name:        l.name,
			CPUs:        l.cpus,
			Live:        !l.health.Lost(),
			Outstanding: l.occ,
			EWMATaskNs:  ns,
			EWMASamples: l.ewma.Samples(),
		}
	}
	return out
}

// HostStats snapshots the host runtime's scheduler counters.
func (f *Fabric) HostStats() core.StatsSnapshot {
	return f.net.Host.Stats().Snapshot()
}

// KillDomain crash-tests worker domain i (0-based): its service loops
// die and the host must recover via missed heartbeats.
func (f *Fabric) KillDomain(i int) error {
	if i < 0 || i >= len(f.workers) {
		return oerrors.Errorf(oerrors.Admission, oerrors.CodeInvalidOption, "taskfabric: no domain %d", i)
	}
	f.workers[i].Kill()
	return nil
}

// ReadmitDomain returns a lost (and since restarted) domain to service:
// restart the worker's service loops, then clear the health record so
// the monitor resumes pinging it. Only a lost domain can be readmitted.
//
// The readmission happens only once the fabric has taken the domain's
// loss notice and reclaimed the flights sent there before the loss;
// until then it parks. A notice taken after the readmission would
// reclaim flights sent to the live, readmitted domain.
func (f *Fabric) ReadmitDomain(i int) error {
	if i < 0 || i >= len(f.links) {
		return oerrors.Errorf(oerrors.Admission, oerrors.CodeInvalidOption, "taskfabric: no domain %d", i)
	}
	l := f.links[i]
	f.mu.Lock()
	switch {
	case f.closed.Load():
		f.mu.Unlock()
		return ErrClosed
	case !l.health.Lost():
		f.mu.Unlock()
		return oerrors.Errorf(oerrors.Domain, oerrors.CodeReadmit, "taskfabric: domain %s is not lost", l.w.name)
	case f.parked[i] != nil:
		f.mu.Unlock()
		return oerrors.Errorf(oerrors.Domain, oerrors.CodeReadmit, "taskfabric: domain %s readmitted concurrently", l.w.name)
	case f.noticed[i]:
		f.readmit(i)
		f.pump()
		f.mu.Unlock()
		return nil
	}
	reply := make(chan error, 1)
	f.parked[i] = reply
	f.mu.Unlock()
	select {
	case err := <-reply:
		return err
	case <-f.stopCh:
		return ErrClosed
	}
}

// readmit returns lost domain li to service. Caller holds f.mu.
func (f *Fabric) readmit(li int) {
	l := f.links[li]
	l.w.restart()
	l.health.Readmit(time.Now().UnixNano())
	f.noticed[li] = false
	f.st.readmissions.Add(1)
}

// SubmitJob submits one ungrouped task executing the named job with the
// given argument, dispatched to whichever domain has capacity.
func (f *Fabric) SubmitJob(job string, arg []byte) (*TaskHandle, error) {
	return f.submit(job, arg, nil, nil, nil)
}

// SubmitJobObserved is SubmitJob with a per-task observer and a
// completion, each optional. obs receives every event record of this
// task, after the global sink, under the fabric's lock, so it must not
// block or call into the fabric; it is attached before the task is
// placed, so no event can precede it. complete receives the task's
// result once, after the handle has settled and outside the lock, on
// the goroutine that settled it: a domain's receiver, the local
// executor, Group.Cancel or Close. It may submit, but that domain's
// next result waits for it to return.
func (f *Fabric) SubmitJobObserved(job string, arg []byte, obs func(trace.FabricEvent), complete func([]byte, error)) (*TaskHandle, error) {
	return f.submit(job, arg, nil, obs, complete)
}

func (f *Fabric) submit(job string, arg []byte, g *Group, obs func(trace.FabricEvent), complete func([]byte, error)) (*TaskHandle, error) {
	if err := f.admit(job); err != nil {
		return nil, err
	}
	t := newTask(job, arg, g, obs)
	t.complete = complete
	if err := f.place(t); err != nil {
		return nil, err
	}
	return &t.TaskHandle, nil
}

// submitAll submits one task of the named job per argument and places
// the whole batch in one pump — one (batched) packet per domain instead
// of one per task. A region's chunks arrive this way. obs, when set,
// observes every task of the batch.
func (f *Fabric) submitAll(job string, args [][]byte, g *Group, obs func(trace.FabricEvent)) ([]*TaskHandle, error) {
	if err := f.admit(job); err != nil {
		return nil, err
	}
	ts := make([]*task, len(args))
	hs := make([]*TaskHandle, len(args))
	for i, arg := range args {
		ts[i] = newTask(job, arg, g, obs)
		hs[i] = &ts[i].TaskHandle
	}
	if err := f.place(ts...); err != nil {
		return nil, err
	}
	return hs, nil
}

// admit refuses a submission to a closed fabric or of an unknown job.
func (f *Fabric) admit(job string) error {
	if f.closed.Load() {
		return ErrClosed
	}
	if _, ok := f.reg.Lookup(job); !ok {
		return oerrors.Errorf(oerrors.Internal, oerrors.CodeUnknownJob, "taskfabric: unknown job %q", job)
	}
	return nil
}

// newTask mints one task of job over a private copy of arg, for group
// g (nil for none).
func newTask(job string, arg []byte, g *Group, obs func(trace.FabricEvent)) *task {
	id := taskSeq.Add(1)
	return &task{TaskHandle: TaskHandle{id: id, job: job}, arg: append([]byte(nil), arg...), g: g, obs: obs}
}

// place queues ts, each joining its group, and pumps, on the submitting
// goroutine; a closed fabric refuses them with ErrClosed.
func (f *Fabric) place(ts ...*task) error {
	f.mu.Lock()
	if f.closed.Load() {
		f.mu.Unlock()
		return ErrClosed
	}
	for _, t := range ts {
		if t.g != nil {
			t.g.addMember(&t.TaskHandle)
		}
		f.tasks[t.id] = t
	}
	f.pending = append(f.pending, ts...)
	f.st.submitted.Add(uint64(len(ts)))
	f.pump()
	f.mu.Unlock()
	return nil
}

// receiver reads one link's result channel and settles what it reads.
// Decodes are zero-copy: the receiver owns each delivered packet
// exclusively and never recycles it, so payloads may alias.
func (f *Fabric) receiver(i int) {
	defer f.wg.Done()
	l := f.links[i]
	for {
		pkt, err := l.res.Recv(mcapi.TimeoutInfinite)
		if err != nil {
			return
		}
		f.mu.Lock()
		s, changed := f.handleFrame(i, pkt)
		if changed {
			f.pump()
		}
		f.mu.Unlock()
		s.deliver()
	}
}

// handleFrame processes the one frame of a packet from domain dom,
// reporting what it settled and whether dispatch state changed. Caller
// holds f.mu.
func (f *Fabric) handleFrame(dom int, pkt []byte) (settlement, bool) {
	kind, ok := offload.FrameKind(pkt)
	if !ok {
		return settlement{}, false
	}
	switch kind {
	case offload.KindTaskResult:
		m, err := offload.DecodeTaskResultShared(pkt)
		if err != nil {
			return settlement{}, false
		}
		t, known := f.tasks[m.Task]
		if !known {
			return settlement{}, false // duplicate or stale: already settled
		}
		var terr error
		switch m.Status {
		case offload.StatusUnknownJob:
			terr = oerrors.Errorf(oerrors.Internal, oerrors.CodeUnknownJob, "taskfabric: domain %d: unknown job %q", dom, string(m.Payload))
		case offload.StatusJobError:
			terr = oerrors.Errorf(oerrors.Internal, oerrors.CodeJobFailed, "taskfabric: job %q: %s", t.job, string(m.Payload))
		}
		f.st.remoteTasks.Add(1)
		f.emit(t, trace.EvTaskRecv, dom, -1)
		return f.settle(t, dom, m.Payload, terr), true
	case offload.KindStealMoved:
		m, err := offload.DecodeStealMoved(pkt)
		if err != nil {
			return settlement{}, false
		}
		// Re-point the flight from victim to thief so deadlines,
		// occupancy and loss recovery follow the task to its new
		// executor. Stale moves (task settled, reclaimed, or already
		// re-dispatched) are ignored: the eventual duplicate result is
		// dropped by the settle check.
		victimLi := int(m.Victim) - 1
		if victimLi < 0 || victimLi >= len(f.links) {
			return settlement{}, false
		}
		fl, ok := f.infl[m.Task]
		if !ok || fl.dom != victimLi {
			return settlement{}, false
		}
		now := time.Now()
		f.infl[m.Task] = flight{dom: dom, sent: now, expiry: now.Add(f.cfg.deadline)}
		f.links[victimLi].occ--
		f.links[dom].occ++
		f.st.steals.Add(1)
		f.emit(f.tasks[m.Task], trace.EvPeerSteal, dom, victimLi)
		return settlement{}, true
	}
	return settlement{}, false
}

// localExec is the host's executor for tasks pinned local — recovered
// from a lost domain, out of retries, or with no live domain to go to.
func (f *Fabric) localExec() {
	defer f.wg.Done()
	for {
		select {
		case <-f.stopCh:
			return
		case t := <-f.localQ:
			var payload []byte
			var err error
			if job, ok := f.reg.Lookup(t.job); !ok {
				err = oerrors.Errorf(oerrors.Internal, oerrors.CodeUnknownJob, "taskfabric: unknown job %q", t.job)
			} else {
				payload, err = job.Execute(f.net.Host, t.arg)
			}
			var s settlement
			f.mu.Lock()
			if _, known := f.tasks[t.id]; known {
				f.st.localTasks.Add(1)
				f.emit(t, trace.EvTaskRecv, -1, -1)
				s = f.settle(t, -1, payload, err)
				f.pump()
			}
			f.mu.Unlock()
			s.deliver()
		}
	}
}

// healthLoop runs the shared heartbeat monitor (internal/offload) over
// the links; a lost domain is killed and its tasks reclaimed.
func (f *Fabric) healthLoop() {
	defer f.wg.Done()
	peers := make([]offload.HealthPeer, len(f.links))
	for i, l := range f.links {
		peers[i] = offload.HealthPeer{ID: l.w.id, State: l.health, PingTo: l.hbTo, PongFrom: l.hbFrom}
	}
	offload.MonitorHealth(f.stopCh, f.cfg.heartbeat, f.cfg.lostAfter, peers,
		func(i int) {
			f.st.domainsLost.Add(1)
			f.links[i].w.Kill()
			f.domainLost(i)
		},
		func() { f.st.heartbeats.Add(1) },
		func() { f.st.pingDrops.Add(1) })
}

// domainLost takes domain li's loss notice: every flight sent there is
// reclaimed for the host, and a readmission waiting for the notice goes
// ahead.
func (f *Fabric) domainLost(li int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed.Load() {
		return
	}
	l := f.links[li]
	silence := l.health.Silence()
	for id, fl := range f.infl {
		if fl.dom != li {
			continue
		}
		f.unflight(id)
		t := f.tasks[id]
		t.recovered = true
		t.lostDom = l.w.id
		t.lostName = l.name
		t.lostSilence = silence
		f.reclaim(t, true)
	}
	f.noticed[li] = true
	if reply := f.parked[li]; reply != nil {
		f.parked[li] = nil
		f.readmit(li)
		reply <- nil
	}
	f.pump()
}

// cancel settles every unsettled task of g with ErrCanceled and tells
// the live domains to drop g's queued tasks.
func (f *Fabric) cancel(g *Group) {
	f.mu.Lock()
	if f.closed.Load() {
		f.mu.Unlock()
		return
	}
	var canceled []*task
	for id, t := range f.tasks {
		if t.g != g {
			continue
		}
		delete(f.tasks, id)
		f.unflight(id)
		canceled = append(canceled, t)
	}
	f.st.canceled.Add(uint64(len(canceled)))
	done := offload.EncodeGroupDone(offload.GroupDoneFrame{Group: g.id})
	for li, l := range f.links {
		if f.live(li) {
			_ = l.cmd.Send(done, mcapi.TimeoutImmediate)
		}
	}
	offload.RecycleFrame(done)
	f.pump()
	f.mu.Unlock()
	for _, t := range canceled {
		settlement{t: t, dom: -1, err: ErrCanceled}.deliver()
	}
}

// ticker re-dispatches expired flights, retries what the last pump
// could not place and broadcasts the load map, every 10 ms.
func (f *Fabric) ticker() {
	defer f.wg.Done()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-f.stopCh:
			return
		case <-tick.C:
			f.tick()
		}
	}
}

func (f *Fabric) tick() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed.Load() {
		return
	}
	now := time.Now()
	for id, fl := range f.infl {
		if fl.dom < 0 || fl.expiry.After(now) {
			continue
		}
		f.unflight(id)
		f.reclaim(f.tasks[id], false)
	}
	f.pump()
	if len(f.links) >= 2 {
		// Broadcast the occupancy snapshot the mesh steals from.
		lm := offload.LoadMapFrame{Occ: make([]uint32, len(f.links))}
		for li, l := range f.links {
			lm.Occ[li] = uint32(l.occ)
		}
		pkt := offload.EncodeLoadMap(lm)
		for li, l := range f.links {
			if f.live(li) {
				_ = l.cmd.Send(pkt, mcapi.TimeoutImmediate)
			}
		}
		offload.RecycleFrame(pkt)
	}
}

// live reports whether domain li is in service.
func (f *Fabric) live(li int) bool { return !f.links[li].health.Lost() }

// emit delivers one event record of t to the global sink, then to t's
// own observer. Caller holds f.mu.
func (f *Fabric) emit(t *task, kind trace.EventKind, dom, victim int) {
	ev := trace.FabricEvent{Kind: kind, Task: t.id, Domain: dom, Victim: victim}
	if f.cfg.sink != nil {
		f.cfg.sink.Event(ev)
	}
	if t.obs != nil {
		t.obs(ev)
	}
}

// unflight drops id's flight, if any, and releases its domain slot.
// Caller holds f.mu.
func (f *Fabric) unflight(id uint64) (flight, bool) {
	fl, ok := f.infl[id]
	if ok {
		delete(f.infl, id)
		if fl.dom >= 0 {
			f.links[fl.dom].occ--
		}
	}
	return fl, ok
}

// settle removes t from the tables and returns its outcome for the
// caller to deliver once it has released f.mu; a recovered task's
// success carries ErrDomainLost. Caller holds f.mu.
func (f *Fabric) settle(t *task, dom int, res []byte, err error) settlement {
	delete(f.tasks, t.id)
	if fl, ok := f.unflight(t.id); ok && fl.dom >= 0 {
		f.links[fl.dom].ewma.Observe(float64(time.Since(fl.sent)))
	}
	if err == nil && t.recovered {
		err = oerrors.DomainLost(ErrDomainLost, "taskfabric",
			t.lostDom, t.lostName, t.lostSilence,
			fmt.Sprintf("task %d re-executed elsewhere", t.id))
	}
	return settlement{t: t, dom: dom, res: res, err: err}
}

// reclaim pulls a task back from a failed dispatch for another try;
// past the retry budget (or after domain loss) it pins local. Caller
// holds f.mu.
func (f *Fabric) reclaim(t *task, toLocal bool) {
	t.attempt++
	f.st.resends.Add(1)
	if toLocal || t.attempt > maxRetries {
		t.forcedLocal = true
	}
	f.pending = append(f.pending, t)
}

// pump places the pending queue: pinned-local tasks (and every task
// when no domain is live) go to the host executor, the rest to the live
// domain with the fewest tasks in flight. What cannot be placed stays
// queued for the next pump. Its scratch (extra, plans, batch) lives
// across pumps, and what stays queued is compacted into pending's own
// array, so a pump allocates nothing once they have grown. Caller holds
// f.mu.
func (f *Fabric) pump() {
	// Plan the whole queue first — min-occupancy placement using this
	// round's tentative assignments (extra) on top of what is already in
	// flight — then flush each domain's plan as one batch packet. A
	// failed flush commits nothing for that domain; its tasks go back in
	// the queue for the tick to retry. rest never overtakes the range
	// over pending it is written behind.
	load := func(li int) int { return f.links[li].occ + f.extra[li] }
	anyLive := false
	for li := range f.links {
		anyLive = anyLive || f.live(li)
	}
	rest := f.pending[:0]
	clear(f.extra)
	for _, t := range f.pending {
		if _, alive := f.tasks[t.id]; !alive {
			continue // settled or canceled while queued
		}
		if t.forcedLocal || !anyLive {
			select {
			case f.localQ <- t:
				f.infl[t.id] = flight{dom: -1}
				f.emit(t, trace.EvTaskSend, -1, -1)
			default:
				rest = append(rest, t) // local executor saturated
			}
			continue
		}
		best := -1
		for li := range f.links {
			if !f.live(li) || load(li) >= f.cfg.inflight {
				continue
			}
			if best < 0 || load(li) < load(best) {
				best = li
			}
		}
		if best < 0 {
			rest = append(rest, t)
			continue
		}
		f.extra[best]++
		f.plans[best] = append(f.plans[best], t)
	}
	for li, plan := range f.plans {
		if len(plan) == 0 {
			continue
		}
		for _, t := range plan {
			var gid uint64
			if t.g != nil {
				gid = t.g.id
			}
			f.batch.Add(offload.EncodeTaskFrame(offload.KindTask, offload.TaskFrame{
				Task: t.id, Attempt: t.attempt, Group: gid, Job: t.job, Arg: t.arg,
			}))
		}
		if f.batch.Flush(func(pkt []byte) error {
			return f.links[li].cmd.Send(pkt, mcapi.TimeoutImmediate)
		}) != nil {
			rest = append(rest, plan...)
		} else {
			now := time.Now()
			for _, t := range plan {
				f.infl[t.id] = flight{dom: li, sent: now, expiry: now.Add(f.cfg.deadline)}
				f.links[li].occ++
				f.emit(t, trace.EvTaskSend, li, -1)
			}
		}
		clear(plan)
		f.plans[li] = plan[:0]
	}
	clear(f.pending[len(rest):])
	f.pending = rest
}

// Close shuts the fabric down: outstanding tasks settle with ErrClosed,
// workers get a best-effort shutdown frame, the host's endpoints are
// finalized first (waking blocked worker sends), then each domain stops
// and the host runtime closes. Idempotent.
func (f *Fabric) Close() error {
	if !f.closed.CompareAndSwap(false, true) {
		return nil
	}
	f.mu.Lock()
	closing := make([]*task, 0, len(f.tasks))
	for _, t := range f.tasks {
		closing = append(closing, t)
	}
	clear(f.tasks)
	clear(f.infl)
	f.pending = nil
	f.mu.Unlock()
	close(f.stopCh)
	for _, t := range closing {
		settlement{t: t, dom: -1, err: ErrClosed}.deliver()
	}
	shut := offload.EncodeFabricShutdown()
	for _, l := range f.links {
		if !l.health.Lost() {
			_ = l.cmd.Send(shut, mcapi.TimeoutImmediate)
		}
	}
	offload.RecycleFrame(shut)
	_ = f.net.HostNode.Finalize()
	for _, w := range f.workers {
		w.stop()
	}
	f.wg.Wait()
	err := f.net.Host.Close()
	for _, p := range f.net.HV.Partitions() {
		_ = f.net.HV.Stop(p.Name)
	}
	return err
}

// EstimateDomainNs exposes the perfmodel estimate for one task running n
// units on domain li's partition — a planning aid for demos sizing
// irregular graphs; the pump itself balances by occupancy.
func (f *Fabric) EstimateDomainNs(li int, prof perfmodel.KernelProfile, units float64) (float64, error) {
	if li < 0 || li >= len(f.net.Links) {
		return 0, oerrors.Errorf(oerrors.Admission, oerrors.CodeInvalidOption, "taskfabric: no domain %d", li)
	}
	return perfmodel.EstimateRegionNs(f.cfg.board, prof, f.net.Links[li].CPUs, units), nil
}
