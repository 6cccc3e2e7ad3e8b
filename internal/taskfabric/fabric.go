// Package taskfabric distributes MTAPI-style irregular tasks across
// multiple runtime domains — separate core.Runtime instances, each bound
// to its own hypervisor partition of the board — joined only by MCAPI
// packet channels.
//
// The host submits jobs by name; task descriptors travel to worker
// domains as wire frames (internal/offload's task codec), where a local
// MTAPI node schedules them onto the partition's OpenMP runtime. Results,
// queue-occupancy credits and steal yields flow back on the result
// channel. Idle domains steal from each other directly: an idle worker
// asks the most loaded peer, over a worker-to-worker mesh channel, for
// half its unstarted tasks (peersteal.go). When that peer link is dead
// or the request goes unanswered, the worker asks the host to broker
// the steal instead. Per-task deadlines and retries handle slow domains;
// heartbeat loss detection reclaims a dead domain's in-flight tasks and
// re-executes them locally on the host, so a submitted graph always
// completes — the loss surfaces as an ErrDomainLost-wrapped error
// alongside the full result.
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
// and steal, each once. trace.Recorder and spans.Exporter implement it.
type EventSink interface {
	Event(ev trace.FabricEvent)
}

// stealMin is the outstanding-task floor below which a domain is not
// worth stealing from.
const stealMin = 2

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
	submitted         atomic.Uint64
	remoteTasks       atomic.Uint64
	localTasks        atomic.Uint64
	resends           atomic.Uint64
	steals            atomic.Uint64
	peerSteals        atomic.Uint64
	brokeredFallbacks atomic.Uint64
	canceled          atomic.Uint64
	domainsLost       atomic.Uint64
	readmissions      atomic.Uint64
	heartbeats        atomic.Uint64
	pingDrops         atomic.Uint64

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
	Steals            uint64 `json:"steals"`             // queued tasks migrated between domains (any path)
	PeerSteals        uint64 `json:"peer_steals"`        // steals completed over direct peer channels
	BrokeredFallbacks uint64 `json:"brokered_fallbacks"` // peer-steal attempts that fell back to host brokerage
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

	done chan struct{}
	mu   sync.Mutex
	fin  bool
	dom  int // executor that delivered the result; -1 = host
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
	defer h.mu.Unlock()
	if h.fin {
		return
	}
	h.fin = true
	h.dom = dom
	h.res = res
	h.err = err
	close(h.done)
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
	switch {
	case timeout < 0:
		<-h.done
	case timeout == 0:
		select {
		case <-h.done:
		default:
			return nil, ErrTimeout
		}
	default:
		t := time.NewTimer(timeout)
		defer t.Stop()
		select {
		case <-h.done:
		case <-t.C:
			return nil, ErrTimeout
		}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.res, h.err
}

// task is the scheduler's record of one submitted task.
type task struct {
	id          uint64
	job         string
	arg         []byte
	h           *TaskHandle
	g           *Group
	obs         func(trace.FabricEvent) // this task's observer; nil for none
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

// arrival is one raw packet handed from a link receiver to the scheduler.
type arrival struct {
	dom int
	pkt []byte
}

// localDone is one task completed by the host's local executor.
type localDone struct {
	t       *task
	payload []byte
	err     error
}

// hostLink is the host's view of one worker domain. occ mirrors the
// scheduler's outstanding-task count for this domain (the scheduler
// goroutine is the only writer; introspection surfaces such as
// DomainInfos read it atomically), and ewma folds in observed
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
	occ    atomic.Int64
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

	submitCh    chan []*task
	arrCh       chan arrival
	localQ      chan *task
	localDoneCh chan localDone
	lostCh      chan int
	cancelCh    chan *Group
	stopCh      chan struct{}
	wg          sync.WaitGroup

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
// the host's scheduler, receivers and health monitor.
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
		cfg:         cfg,
		reg:         reg,
		net:         net,
		submitCh:    make(chan []*task),
		arrCh:       make(chan arrival, 64),
		localQ:      make(chan *task, 4),
		localDoneCh: make(chan localDone),
		lostCh:      make(chan int, cfg.domains),
		cancelCh:    make(chan *Group),
		stopCh:      make(chan struct{}),
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
	go f.scheduler()
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
		Submitted:         f.st.submitted.Load(),
		RemoteTasks:       f.st.remoteTasks.Load(),
		LocalTasks:        f.st.localTasks.Load(),
		Resends:           f.st.resends.Load(),
		Steals:            f.st.steals.Load(),
		PeerSteals:        f.st.peerSteals.Load(),
		BrokeredFallbacks: f.st.brokeredFallbacks.Load(),
		Canceled:          f.st.canceled.Load(),
		DomainsLost:       f.st.domainsLost.Load(),
		Readmissions:      f.st.readmissions.Load(),
		Heartbeats:        f.st.heartbeats.Load(),
		PingDrops:         f.st.pingDrops.Load(),
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
	for i, l := range f.links {
		ns, _ := l.ewma.Value()
		out[i] = DomainInfo{
			ID:          i,
			Name:        l.name,
			CPUs:        l.cpus,
			Live:        !l.health.Lost(),
			Outstanding: int(l.occ.Load()),
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
func (f *Fabric) ReadmitDomain(i int) error {
	if f.closed.Load() {
		return ErrClosed
	}
	if i < 0 || i >= len(f.links) {
		return oerrors.Errorf(oerrors.Admission, oerrors.CodeInvalidOption, "taskfabric: no domain %d", i)
	}
	l := f.links[i]
	if !l.health.Lost() {
		return oerrors.Errorf(oerrors.Domain, oerrors.CodeReadmit, "taskfabric: domain %s is not lost", l.w.name)
	}
	l.w.restart()
	if !l.health.Readmit(time.Now().UnixNano()) {
		return oerrors.Errorf(oerrors.Domain, oerrors.CodeReadmit, "taskfabric: domain %s readmitted concurrently", l.w.name)
	}
	f.st.readmissions.Add(1)
	return nil
}

// SubmitJob submits one ungrouped task executing the named job with the
// given argument, dispatched to whichever domain has capacity.
func (f *Fabric) SubmitJob(job string, arg []byte) (*TaskHandle, error) {
	return f.submit(job, arg, nil, nil)
}

// SubmitJobObserved is SubmitJob with a per-task observer: obs receives
// every event record of this task, after the global sink, on the
// scheduler goroutine, so it must not block. It is attached before the
// task reaches the scheduler, so no event can precede it.
func (f *Fabric) SubmitJobObserved(job string, arg []byte, obs func(trace.FabricEvent)) (*TaskHandle, error) {
	return f.submit(job, arg, nil, obs)
}

func (f *Fabric) submit(job string, arg []byte, g *Group, obs func(trace.FabricEvent)) (*TaskHandle, error) {
	hs, err := f.submitAll(job, [][]byte{arg}, g, obs)
	if err != nil {
		return nil, err
	}
	return hs[0], nil
}

// submitAll submits one task of the named job per argument in a single
// hand-off to the scheduler, which places the whole batch in one pump —
// one (batched) packet per domain instead of one per task. A region's
// chunks arrive this way. obs, when set, observes every task of the batch.
func (f *Fabric) submitAll(job string, args [][]byte, g *Group, obs func(trace.FabricEvent)) ([]*TaskHandle, error) {
	if f.closed.Load() {
		return nil, ErrClosed
	}
	if _, ok := f.reg.Lookup(job); !ok {
		return nil, oerrors.Errorf(oerrors.Internal, oerrors.CodeUnknownJob, "taskfabric: unknown job %q", job)
	}
	ts := make([]*task, len(args))
	hs := make([]*TaskHandle, len(args))
	for i, arg := range args {
		id := taskSeq.Add(1)
		h := &TaskHandle{id: id, job: job, done: make(chan struct{})}
		t := &task{id: id, job: job, arg: append([]byte(nil), arg...), h: h, g: g, obs: obs}
		if g != nil {
			g.addMember(h)
		}
		ts[i], hs[i] = t, h
	}
	select {
	case f.submitCh <- ts:
	case <-f.stopCh:
		if g != nil {
			for _, h := range hs {
				g.dropMember(h)
			}
		}
		return nil, ErrClosed
	}
	f.st.submitted.Add(uint64(len(ts)))
	return hs, nil
}

// receiver drains one link's result channel into the scheduler.
func (f *Fabric) receiver(i int) {
	defer f.wg.Done()
	l := f.links[i]
	for {
		pkt, err := l.res.Recv(mcapi.TimeoutInfinite)
		if err != nil {
			return
		}
		select {
		case f.arrCh <- arrival{dom: i, pkt: pkt}:
		case <-f.stopCh:
			return
		}
	}
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
			select {
			case f.localDoneCh <- localDone{t: t, payload: payload, err: err}:
			case <-f.stopCh:
				return
			}
		}
	}
}

// healthLoop runs the shared heartbeat monitor (internal/offload) over
// the links; a lost domain is killed and reported to the scheduler for
// task reclamation.
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
			select {
			case f.lostCh <- i:
			default:
			}
		},
		func() { f.st.heartbeats.Add(1) },
		func() { f.st.pingDrops.Add(1) })
}

// scheduler is the single goroutine owning all dispatch state: the
// pending queue, the in-flight table, per-domain occupancy and the
// active steal grant. Everything else talks to it over channels.
func (f *Fabric) scheduler() {
	defer f.wg.Done()
	var (
		pending     []*task
		tasks       = make(map[uint64]*task)
		infl        = make(map[uint64]flight)
		grantVictim = -1
		grantThief  = -1
	)
	// Per-domain outstanding counts live on the links as atomics so
	// DomainInfos can snapshot them; the scheduler is the only writer.
	occ := func(li int) int { return int(f.links[li].occ.Load()) }
	clearGrant := func() { grantVictim, grantThief = -1, -1 }
	live := func(li int) bool { return !f.links[li].health.Lost() }
	anyLive := func() bool {
		for li := range f.links {
			if live(li) {
				return true
			}
		}
		return false
	}

	// emit delivers one event record of t to the global sink, then to
	// t's own observer.
	emit := func(t *task, kind trace.EventKind, dom, victim int) {
		ev := trace.FabricEvent{Kind: kind, Task: t.id, Domain: dom, Victim: victim}
		if f.cfg.sink != nil {
			f.cfg.sink.Event(ev)
		}
		if t.obs != nil {
			t.obs(ev)
		}
	}

	// finish completes a task: release its flight slot, settle the handle
	// (a recovered task's success carries ErrDomainLost), notify its group.
	finish := func(t *task, dom int, payload []byte, err error) {
		delete(tasks, t.id)
		if fl, ok := infl[t.id]; ok {
			delete(infl, t.id)
			if fl.dom >= 0 {
				f.links[fl.dom].occ.Add(-1)
				if !fl.sent.IsZero() {
					f.links[fl.dom].ewma.Observe(float64(time.Since(fl.sent)))
				}
			}
		}
		if err == nil && t.recovered {
			err = oerrors.DomainLost(ErrDomainLost, "taskfabric",
				t.lostDom, t.lostName, t.lostSilence,
				fmt.Sprintf("task %d re-executed elsewhere", t.id))
		}
		t.h.finish(dom, payload, err)
		if t.g != nil {
			t.g.taskDone(t.h)
		}
	}

	// commitRemote records a successful dispatch of t to domain li.
	commitRemote := func(t *task, li int) {
		now := time.Now()
		infl[t.id] = flight{dom: li, sent: now, expiry: now.Add(f.cfg.deadline)}
		f.links[li].occ.Add(1)
		emit(t, trace.EvTaskSend, li, -1)
	}

	// pump places the pending queue: pinned-local tasks (and every task
	// when no domain is live) go to the host executor, the rest to the
	// live domain with the fewest tasks in flight. What cannot be placed
	// stays queued for the next pump.
	pump := func() {
		var rest []*task
		// Plan the whole queue first — min-occupancy placement using
		// this round's tentative assignments (extra) on top of what is
		// already in flight — then flush each domain's plan as one
		// batch packet. A failed flush commits nothing for that domain;
		// its tasks go back in the queue for the tick to retry.
		extra := make([]int, len(f.links))
		plans := make([][]*task, len(f.links))
		for _, t := range pending {
			if _, alive := tasks[t.id]; !alive {
				continue // finished or canceled while queued
			}
			if t.forcedLocal || !anyLive() {
				select {
				case f.localQ <- t:
					infl[t.id] = flight{dom: -1}
					emit(t, trace.EvTaskSend, -1, -1)
				default:
					rest = append(rest, t) // local executor saturated
				}
				continue
			}
			best := -1
			for li := range f.links {
				if !live(li) || occ(li)+extra[li] >= f.cfg.inflight {
					continue
				}
				if best < 0 || occ(li)+extra[li] < occ(best)+extra[best] {
					best = li
				}
			}
			if best < 0 {
				rest = append(rest, t)
				continue
			}
			extra[best]++
			plans[best] = append(plans[best], t)
		}
		for li, plan := range plans {
			if len(plan) == 0 {
				continue
			}
			var b offload.Batcher
			for _, t := range plan {
				var gid uint64
				if t.g != nil {
					gid = t.g.id
				}
				b.Add(offload.EncodeTaskFrame(offload.KindTask, offload.TaskFrame{
					Task: t.id, Attempt: t.attempt, Group: gid, Job: t.job, Arg: t.arg,
				}))
			}
			if b.Flush(func(pkt []byte) error {
				return f.links[li].cmd.Send(pkt, mcapi.TimeoutImmediate)
			}) != nil {
				rest = append(rest, plan...)
				continue
			}
			for _, t := range plan {
				commitRemote(t, li)
			}
		}
		pending = rest
	}

	// reclaim pulls a task back from a failed dispatch for another try;
	// past the retry budget (or after domain loss) it pins local.
	reclaim := func(t *task, toLocal bool) {
		t.attempt++
		f.st.resends.Add(1)
		if toLocal || t.attempt > maxRetries {
			t.forcedLocal = true
		}
		pending = append(pending, t)
	}

	// tryGrant brokers a steal for an idle thief domain: grant the most
	// loaded live victim permission to yield half its queue to the host.
	// Idle domains steal over the peer mesh on their own; the host only
	// brokers when a worker asks it to fall back (KindPeerSteal on the
	// result channel) because its peer link is dead or its request went
	// unanswered.
	tryGrant := func(thief int) {
		if occ(thief) != 0 || len(pending) != 0 || grantVictim >= 0 || !live(thief) {
			return
		}
		victim := -1
		for li := range f.links {
			if li == thief || !live(li) || occ(li) < stealMin {
				continue
			}
			if victim < 0 || occ(li) > occ(victim) {
				victim = li
			}
		}
		if victim < 0 {
			return
		}
		grant := offload.EncodeStealGrant(offload.StealGrantFrame{
			Want: uint32(occ(victim) / 2),
		})
		err := f.links[victim].cmd.Send(grant, mcapi.TimeoutImmediate)
		offload.RecycleFrame(grant)
		if err == nil {
			grantVictim, grantThief = victim, thief
		}
	}

	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()

	for {
		select {
		case <-f.stopCh:
			for _, t := range tasks {
				t.h.finish(-1, nil, ErrClosed)
				if t.g != nil {
					t.g.taskDone(t.h)
				}
			}
			return

		case ts := <-f.submitCh:
			for _, t := range ts {
				tasks[t.id] = t
			}
			pending = append(pending, ts...)
			pump()

		case a := <-f.arrCh:
			// handleFrame processes one unwrapped frame from domain
			// a.dom, reporting whether dispatch state changed (the
			// caller pumps once after the whole packet). Decodes are
			// zero-copy: the scheduler owns each delivered packet
			// exclusively and never recycles it, so payloads may alias.
			handleFrame := func(pkt []byte) bool {
				kind, ok := offload.FrameKind(pkt)
				if !ok {
					return false
				}
				switch kind {
				case offload.KindTaskResult:
					m, err := offload.DecodeTaskResultShared(pkt)
					if err != nil {
						return false
					}
					t, known := tasks[m.Task]
					if !known {
						return false // duplicate or stale: already settled
					}
					var terr error
					switch m.Status {
					case offload.StatusUnknownJob:
						terr = oerrors.Errorf(oerrors.Internal, oerrors.CodeUnknownJob, "taskfabric: domain %d: unknown job %q", a.dom, string(m.Payload))
					case offload.StatusJobError:
						terr = oerrors.Errorf(oerrors.Internal, oerrors.CodeJobFailed, "taskfabric: job %q: %s", t.job, string(m.Payload))
					}
					f.st.remoteTasks.Add(1)
					emit(t, trace.EvTaskRecv, a.dom, -1)
					finish(t, a.dom, m.Payload, terr)
					return true
				case offload.KindTaskYield:
					m, err := offload.DecodeTaskFrameShared(offload.KindTaskYield, pkt)
					if err != nil {
						return false
					}
					t, known := tasks[m.Task]
					if !known {
						return false
					}
					fl, ok := infl[t.id]
					if !ok || fl.dom != a.dom {
						return false
					}
					delete(infl, t.id)
					f.links[a.dom].occ.Add(-1)
					t.attempt++
					f.st.steals.Add(1)
					thief := -1
					if grantVictim == a.dom {
						thief = grantThief
					}
					emit(t, trace.EvTaskSteal, thief, a.dom)
					// Head of the queue: the idle thief has the lowest
					// occupancy, so min-outstanding dispatch routes the
					// migrated task straight to it.
					pending = append([]*task{t}, pending...)
					return true
				case offload.KindCredit:
					if _, err := offload.DecodeCredit(pkt); err != nil {
						return false
					}
					if grantVictim == a.dom {
						clearGrant() // grant settled: victim reported back
					}
				case offload.KindPeerSteal:
					// A thief's peer path is dead or went unanswered: it
					// asks the host to broker the steal the classic way.
					if _, err := offload.DecodePeerSteal(pkt); err != nil {
						return false
					}
					f.st.brokeredFallbacks.Add(1)
					tryGrant(a.dom)
				case offload.KindStealMoved:
					m, err := offload.DecodeStealMoved(pkt)
					if err != nil {
						return false
					}
					// Re-point the flight from victim to thief so deadlines,
					// occupancy and loss recovery follow the task to its new
					// executor. Stale moves (task settled, reclaimed, or
					// already re-dispatched) are ignored: the eventual
					// duplicate result is dropped by the settle check.
					victimLi := int(m.Victim) - 1
					thiefLi := a.dom
					if victimLi < 0 || victimLi >= len(f.links) {
						return false
					}
					fl, ok := infl[m.Task]
					if !ok || fl.dom != victimLi {
						return false
					}
					t, known := tasks[m.Task]
					if !known {
						return false
					}
					now := time.Now()
					infl[m.Task] = flight{dom: thiefLi, sent: now, expiry: now.Add(f.cfg.deadline)}
					f.links[victimLi].occ.Add(-1)
					f.links[thiefLi].occ.Add(1)
					f.st.steals.Add(1)
					f.st.peerSteals.Add(1)
					emit(t, trace.EvPeerSteal, thiefLi, victimLi)
					return true
				}
				return false
			}
			needPump := false
			if offload.IsBatch(a.pkt) {
				if frames, err := offload.DecodeBatch(a.pkt); err == nil {
					for _, fr := range frames {
						if handleFrame(fr) {
							needPump = true
						}
					}
				}
			} else if handleFrame(a.pkt) {
				needPump = true
			}
			if needPump {
				pump()
			}

		case d := <-f.localDoneCh:
			if _, known := tasks[d.t.id]; !known {
				continue
			}
			f.st.localTasks.Add(1)
			emit(d.t, trace.EvTaskRecv, -1, -1)
			finish(d.t, -1, d.payload, d.err)
			pump()

		case li := <-f.lostCh:
			ll := f.links[li]
			silence := ll.health.Silence()
			for id, fl := range infl {
				if fl.dom != li {
					continue
				}
				delete(infl, id)
				t, known := tasks[id]
				if !known {
					continue
				}
				t.recovered = true
				t.lostDom = ll.w.id
				t.lostName = ll.name
				t.lostSilence = silence
				reclaim(t, true)
			}
			f.links[li].occ.Store(0)
			if grantVictim == li || grantThief == li {
				clearGrant()
			}
			pump()

		case g := <-f.cancelCh:
			for id, t := range tasks {
				if t.g != g {
					continue
				}
				delete(tasks, id)
				if fl, ok := infl[id]; ok {
					delete(infl, id)
					if fl.dom >= 0 {
						f.links[fl.dom].occ.Add(-1)
					}
				}
				f.st.canceled.Add(1)
				t.h.finish(-1, nil, ErrCanceled)
				g.taskDone(t.h)
			}
			done := offload.EncodeGroupDone(offload.GroupDoneFrame{Group: g.id})
			for li := range f.links {
				if live(li) {
					_ = f.links[li].cmd.Send(done, mcapi.TimeoutImmediate)
				}
			}
			offload.RecycleFrame(done)

		case <-tick.C:
			now := time.Now()
			for id, fl := range infl {
				if fl.dom < 0 || fl.expiry.After(now) {
					continue
				}
				delete(infl, id)
				f.links[fl.dom].occ.Add(-1)
				t, known := tasks[id]
				if !known {
					continue
				}
				reclaim(t, false)
			}
			pump()
			if len(f.links) >= 2 {
				// Broadcast the occupancy snapshot the mesh steals from.
				lm := offload.LoadMapFrame{Occ: make([]uint32, len(f.links))}
				for li := range f.links {
					lm.Occ[li] = uint32(occ(li))
				}
				pkt := offload.EncodeLoadMap(lm)
				for li := range f.links {
					if live(li) {
						_ = f.links[li].cmd.Send(pkt, mcapi.TimeoutImmediate)
					}
				}
				offload.RecycleFrame(pkt)
			}
		}
	}
}

// Close shuts the fabric down: outstanding tasks settle with ErrClosed,
// workers get a best-effort shutdown frame, the host's endpoints are
// finalized first (waking blocked worker sends), then each domain stops
// and the host runtime closes. Idempotent.
func (f *Fabric) Close() error {
	if !f.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(f.stopCh)
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
// irregular graphs; the scheduler itself balances by occupancy.
func (f *Fabric) EstimateDomainNs(li int, prof perfmodel.KernelProfile, units float64) (float64, error) {
	if li < 0 || li >= len(f.net.Links) {
		return 0, oerrors.Errorf(oerrors.Admission, oerrors.CodeInvalidOption, "taskfabric: no domain %d", li)
	}
	return perfmodel.EstimateRegionNs(f.cfg.board, prof, f.net.Links[li].CPUs, units), nil
}
