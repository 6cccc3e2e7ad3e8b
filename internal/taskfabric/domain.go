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
// the unit of currency for steal grants and group-done drops, both of
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

	cmdRecv *mcapi.PktRecvHandle // host -> worker task/steal/group frames
	resSend *mcapi.PktSendHandle // worker -> host results/yields/credits
	hbEp    *mcapi.Endpoint      // receives host pings
	hbHost  *mcapi.Endpoint      // host endpoint pongs are sent to

	killed atomic.Bool
	cmdReq atomic.Pointer[mcapi.Request]
	hbReq  atomic.Pointer[mcapi.Request]
	wg     sync.WaitGroup

	sendMu  sync.Mutex // serializes result/yield/credit sends
	qmu     sync.Mutex
	queued  map[uint64]*queuedTask // accepted, not yet started
	running int                    // tasks currently executing

	// Steal mesh (nil maps with a single domain).
	peerSend map[int]*mcapi.PktSendHandle
	peerRecv map[int]*mcapi.PktRecvHandle
	loadMap  atomic.Pointer[[]uint32] // latest host occupancy broadcast

	peerReqMu sync.Mutex
	peerReqs  map[int]*mcapi.Request // outstanding peer receives, by peer

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
		peerReqs:    make(map[int]*mcapi.Request),
		stealVictim: -1,
	}
	if _, err := w.mt.CreateAction(fabricJob, "taskfabric", w.execute); err != nil {
		w.mt.Shutdown()
		return nil, err
	}
	return w, nil
}

func (w *worker) start() {
	w.wg.Add(2)
	go w.dispatch()
	go w.heartbeat()
	for peer, recv := range w.peerRecv {
		w.wg.Add(1)
		go w.peerLoop(peer, recv)
	}
}

// Kill simulates the domain crashing: the service loops abandon their
// receives, the queue dies with the firmware image, and results of tasks
// already running are suppressed. The host learns of the crash the way
// real hardware would — missed heartbeats. Idempotent.
func (w *worker) Kill() {
	if !w.killed.CompareAndSwap(false, true) {
		return
	}
	if r := w.cmdReq.Load(); r != nil {
		_ = r.Cancel()
	}
	if r := w.hbReq.Load(); r != nil {
		_ = r.Cancel()
	}
	w.peerReqMu.Lock()
	for _, r := range w.peerReqs {
		_ = r.Cancel()
	}
	w.peerReqMu.Unlock()
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
// Receives are issued as cancelable requests so Kill can yank the loop
// out from under a blocked receive.
func (w *worker) dispatch() {
	defer w.wg.Done()
	for {
		req := w.cmdRecv.RecvI(mcapi.TimeoutInfinite)
		w.cmdReq.Store(req)
		if w.killed.Load() {
			_ = req.Cancel()
		}
		if err := req.Wait(mcapi.TimeoutInfinite); err != nil {
			return
		}
		pkt, _, _ := req.Payload()
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
	case offload.KindStealGrant:
		w.yield(pkt)
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
// queued-map insert happens before Start so a steal grant can always
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
// by name, run it on this domain's OpenMP runtime, send the result and a
// fresh credit report. A killed worker's results die with it. Going idle
// afterwards triggers a direct peer steal.
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
	credit := offload.CreditFrame{
		Domain:  uint32(w.id),
		Queued:  uint32(len(w.queued)),
		Running: uint32(w.running),
	}
	w.qmu.Unlock()
	if w.killed.Load() {
		// Crashed mid-task: the computed result dies with the domain.
		return nil, nil
	}
	w.flush(offload.EncodeTaskResult(res), offload.EncodeCredit(credit))
	w.maybeSteal()
	return nil, nil
}

// flush ships encoded frames to the host under sendMu as one packet (a
// batch envelope when there are several) and recycles them. A failed send
// drops the frames: the host's deadline and credit machinery recover.
func (w *worker) flush(frames ...[]byte) {
	w.sendMu.Lock()
	defer w.sendMu.Unlock()
	var b offload.Batcher
	for _, fr := range frames {
		b.Add(fr)
	}
	_ = b.Flush(func(pkt []byte) error {
		return w.resSend.Send(pkt, mcapi.TimeoutInfinite)
	})
}

// yield answers a steal grant: cancel up to Want still-queued tasks —
// mtapi.Task.Cancel succeeds only before the task starts running, which
// is exactly steal semantics — and hand their frames back to the host,
// followed by a credit report so the host can settle the grant.
func (w *worker) yield(pkt []byte) {
	g, err := offload.DecodeStealGrant(pkt)
	if err != nil {
		return
	}
	var yields []offload.TaskFrame
	w.qmu.Lock()
	for id, qt := range w.queued {
		if len(yields) >= int(g.Want) {
			break
		}
		if qt.mt == nil || qt.mt.Cancel() != nil {
			continue // about to run, or already running
		}
		delete(w.queued, id)
		yields = append(yields, qt.frame)
	}
	credit := offload.CreditFrame{
		Domain:  uint32(w.id),
		Queued:  uint32(len(w.queued)),
		Running: uint32(w.running),
	}
	w.qmu.Unlock()
	if w.killed.Load() {
		return
	}
	frames := make([][]byte, 0, len(yields)+1)
	for _, f := range yields {
		frames = append(frames, offload.EncodeTaskFrame(offload.KindTaskYield, f))
	}
	frames = append(frames, offload.EncodeCredit(credit))
	w.flush(frames...)
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
		req := mcapi.MsgRecvTI(w.hbEp, mcapi.TimeoutInfinite)
		w.hbReq.Store(req)
		if w.killed.Load() {
			_ = req.Cancel()
		}
		if err := req.Wait(mcapi.TimeoutInfinite); err != nil {
			return
		}
		msg, _, _ := req.Payload()
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
