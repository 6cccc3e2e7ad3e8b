package taskfabric

import (
	"sync"
	"sync/atomic"
	"time"

	"openmpmca/internal/core"
	"openmpmca/internal/mcapi"
	"openmpmca/internal/mtapi"
	"openmpmca/internal/offload"
)

// fabricJob is the one MTAPI job every worker node registers: "execute a
// fabric task frame". The frame's job name selects the actual work, so
// the wire stays name-based while the local scheduler stays MTAPI.
const fabricJob mtapi.JobID = 1

// queuedTask is one task frame accepted by a worker but not yet running:
// the unit of currency for peer steals and group-done drops, both of
// which work by canceling the still-queued MTAPI task.
type queuedTask struct {
	frame offload.TaskFrame
	mt    *mtapi.Task // nil for the instant between map insert and Start
}

// worker is the domain side of the fabric: an OpenMP runtime in its own
// hypervisor partition, a local MTAPI node scheduling accepted tasks
// onto it, and service loops speaking the task-frame protocol with the
// host. It is reachable only through MCAPI.
type worker struct {
	id   int    // 1-based; MCAPI domain ID and partition ordinal
	name string // hypervisor partition name
	rt   *core.Runtime
	node *mcapi.Node
	mt   *mtapi.Node
	reg  *Registry

	cmdRecv *mcapi.PktRecvHandle // host -> worker task/load-map/group frames
	resSend *mcapi.PktSendHandle // worker -> host results and steal moves
	hbEp    *mcapi.Endpoint      // receives host pings
	hbHost  *mcapi.Endpoint      // host endpoint pongs are sent to

	killed atomic.Bool
	reqs   []atomic.Pointer[mcapi.Request] // each loop's pending receive, by slot
	wg     sync.WaitGroup

	sendMu  sync.Mutex // serializes sends to the host
	qmu     sync.Mutex
	queued  map[uint64]*queuedTask // accepted, not yet started
	running int                    // tasks currently executing

	// Steal mesh (nil maps with a single domain).
	peerSend map[int]*mcapi.PktSendHandle
	peerRecv map[int]*mcapi.PktRecvHandle
	loadMap  atomic.Pointer[[]uint32] // latest host occupancy broadcast

	stealMu     sync.Mutex
	stealVictim int // domain a steal request is outstanding to; -1 none
	stealAt     time.Time
}

func newWorker(nl *offload.NetLink, reg *Registry, mtWorkers int) (*worker, error) {
	w := &worker{
		id:          nl.ID,
		name:        nl.Name,
		rt:          nl.RT,
		node:        nl.Node,
		mt:          mtapi.NewNode(uint32(nl.ID), 0, &mtapi.NodeAttributes{Workers: mtWorkers}),
		reg:         reg,
		cmdRecv:     nl.CmdRecv,
		resSend:     nl.ResSend,
		hbEp:        nl.HBEp,
		hbHost:      nl.HBHost,
		queued:      make(map[uint64]*queuedTask),
		peerSend:    nl.PeerSend,
		peerRecv:    nl.PeerRecv,
		reqs:        make([]atomic.Pointer[mcapi.Request], slotPeers+len(nl.PeerRecv)),
		stealVictim: -1,
	}
	if _, err := w.mt.CreateAction(fabricJob, "taskfabric", w.execute); err != nil {
		w.mt.Shutdown()
		return nil, err
	}
	return w, nil
}

// Receive slots: the command loop, the heartbeat loop, then the mesh links.
const slotCmd, slotHB, slotPeers = 0, 1, 2

func (w *worker) start() {
	w.wg.Add(2)
	go w.dispatch()
	go w.heartbeat()
	slot := slotPeers
	for _, recv := range w.peerRecv {
		w.wg.Add(1)
		go w.peerLoop(slot, recv)
		slot++
	}
}

// recv is one receive of a service loop: issue the request, publish it in
// the loop's slot for Kill, and wait. Kill sets killed before canceling
// the slots and recv stores before checking killed, so one side always
// sees the other. False means exit: killed, or the endpoint torn down.
func (w *worker) recv(slot int, start func() *mcapi.Request) ([]byte, bool) {
	req := start()
	w.reqs[slot].Store(req)
	if w.killed.Load() {
		_ = req.Cancel()
	}
	if err := req.Wait(mcapi.TimeoutInfinite); err != nil {
		return nil, false
	}
	data, _, _ := req.Payload()
	return data, true
}

// Kill simulates the domain crashing: the service loops abandon their
// receives, the queue dies with the firmware image, and results of tasks
// already running are suppressed. The host learns of the crash the way
// real hardware would — missed heartbeats. Idempotent.
func (w *worker) Kill() {
	if !w.killed.CompareAndSwap(false, true) {
		return
	}
	for i := range w.reqs {
		if r := w.reqs[i].Load(); r != nil {
			_ = r.Cancel()
		}
	}
	w.stealMu.Lock()
	w.stealVictim = -1
	w.stealMu.Unlock()
	w.qmu.Lock()
	for id, qt := range w.queued {
		if qt.mt != nil {
			_ = qt.mt.Cancel()
		}
		delete(w.queued, id)
	}
	w.qmu.Unlock()
}

// restart brings a killed worker back for re-admission (a restarted
// firmware image): the crash flag clears and fresh service loops start
// against the still-wired MCAPI endpoints.
func (w *worker) restart() bool {
	if !w.killed.CompareAndSwap(true, false) {
		return false
	}
	w.start()
	return true
}

// stop tears the worker down for good. The MCAPI node is finalized
// before waiting so loops blocked in receives are woken; the host must
// have finalized its node first so a blocked result send is woken too.
// The MTAPI node drains last: its running tasks' sends fail fast once
// the host endpoints are gone.
func (w *worker) stop() {
	w.Kill()
	_ = w.node.Finalize()
	w.wg.Wait()
	w.mt.Shutdown()
	_ = w.rt.Close()
}

// dispatch is the worker's command loop, one frame per MCAPI packet.
// Each receive is a request parked on the command endpoint, so Kill can
// cancel it; a canceled receive leaves its packet queued.
func (w *worker) dispatch() {
	defer w.wg.Done()
	for {
		pkt, ok := w.recv(slotCmd, w.cmdRecv.RecvI)
		if !ok {
			return
		}
		kind, ok := offload.FrameKind(pkt)
		if !ok {
			continue
		}
		if kind == offload.KindBatch {
			frames, err := offload.DecodeBatch(pkt)
			if err != nil {
				continue
			}
			for _, fr := range frames {
				if k, fok := offload.FrameKind(fr); fok {
					if !w.handle(k, fr) {
						return
					}
				}
			}
			continue
		}
		if !w.handle(kind, pkt) {
			return
		}
	}
}

// handle processes one unwrapped command frame; false means shut down.
func (w *worker) handle(kind offload.WireKind, pkt []byte) bool {
	switch kind {
	case offload.KindFabricShutdown:
		return false
	case offload.KindTask:
		w.accept(pkt)
	case offload.KindGroupDone:
		w.dropGroup(pkt)
	case offload.KindLoadMap:
		w.onLoadMap(pkt)
	}
	return true
}

// accept enqueues one host-dispatched task frame.
func (w *worker) accept(pkt []byte) {
	// The dispatcher owns each delivered packet exclusively and never
	// recycles it, so the frame's argument may alias it.
	f, err := offload.DecodeTaskFrameShared(offload.KindTask, pkt)
	if err != nil {
		return
	}
	w.acceptFrame(f)
}

// acceptFrame enqueues one task frame on the local MTAPI node. The
// queued-map insert happens before Start so a peer steal can always
// find the task; the mt field is backfilled under the lock, and skipped
// if the MTAPI worker already started (and removed) the task in between.
// Duplicate deliveries — a fault-injected dup, or a peer yield racing a
// host re-dispatch — are rejected by task id.
func (w *worker) acceptFrame(f offload.TaskFrame) bool {
	qt := &queuedTask{frame: f}
	w.qmu.Lock()
	if _, dup := w.queued[f.Task]; dup {
		w.qmu.Unlock()
		return false
	}
	w.queued[f.Task] = qt
	w.qmu.Unlock()
	t, err := w.mt.Start(fabricJob, qt, nil)
	if err != nil {
		w.qmu.Lock()
		delete(w.queued, f.Task)
		w.qmu.Unlock()
		return false // node down; the host's deadline re-dispatches the task
	}
	w.qmu.Lock()
	if cur, still := w.queued[f.Task]; still && cur == qt {
		qt.mt = t
	}
	w.qmu.Unlock()
	return true
}

// execute is the MTAPI action behind every fabric task: resolve the job
// by name, run it on this domain's OpenMP runtime, send the result. A
// killed worker's results die with it. Going idle afterwards triggers a
// direct peer steal.
func (w *worker) execute(args any) (any, error) {
	qt := args.(*queuedTask)
	f := qt.frame
	w.qmu.Lock()
	delete(w.queued, f.Task)
	w.running++
	w.qmu.Unlock()

	res := offload.TaskResultFrame{Task: f.Task, Attempt: f.Attempt}
	if job, ok := w.reg.Lookup(f.Job); !ok {
		res.Status = offload.StatusUnknownJob
		res.Payload = []byte(f.Job)
	} else if payload, jerr := job.Execute(w.rt, f.Arg); jerr != nil {
		res.Status = offload.StatusJobError
		res.Payload = []byte(jerr.Error())
	} else {
		res.Payload = payload
	}

	w.qmu.Lock()
	w.running--
	w.qmu.Unlock()
	if w.killed.Load() {
		// Crashed mid-task: the computed result dies with the domain.
		return nil, nil
	}
	w.sendHost(offload.EncodeTaskResult(res))
	w.maybeSteal()
	return nil, nil
}

// sendHost ships one encoded frame to the host under sendMu and
// recycles it. A failed send drops the frame: the host's deadline
// recovers.
func (w *worker) sendHost(frame []byte) {
	w.sendMu.Lock()
	_ = w.resSend.Send(frame, mcapi.TimeoutInfinite)
	w.sendMu.Unlock()
	offload.RecycleFrame(frame)
}

// dropGroup discards queued tasks of a completed or canceled group.
func (w *worker) dropGroup(pkt []byte) {
	gd, err := offload.DecodeGroupDone(pkt)
	if err != nil {
		return
	}
	w.qmu.Lock()
	for id, qt := range w.queued {
		if qt.frame.Group != gd.Group || qt.mt == nil {
			continue
		}
		if qt.mt.Cancel() != nil {
			continue
		}
		delete(w.queued, id)
	}
	w.qmu.Unlock()
}

// heartbeat answers host pings with pongs: non-blocking pong sends, a
// full host queue just drops the pong.
func (w *worker) heartbeat() {
	defer w.wg.Done()
	for {
		msg, ok := w.recv(slotHB, func() *mcapi.Request { return mcapi.MsgRecvI(w.hbEp) })
		if !ok {
			return
		}
		ping, err := offload.DecodePing(msg)
		if err != nil {
			continue
		}
		pong := offload.EncodePong(offload.HBFrame{Domain: uint32(w.id), Seq: ping.Seq})
		err = mcapi.MsgSend(w.hbHost, pong, 0, mcapi.TimeoutImmediate)
		offload.RecycleFrame(pong)
		if err != nil {
			if err == mcapi.ErrMemLimit || err == mcapi.ErrTimeout {
				continue // queue full: drop the pong
			}
			return // host endpoint gone
		}
	}
}
