package taskfabric

import (
	"time"

	"openmpmca/internal/mcapi"
	"openmpmca/internal/offload"
)

// Worker side of the peer-to-peer steal mesh. An idle worker picks the
// most-loaded victim from the host's latest occupancy broadcast and
// sends a KindPeerSteal straight to it over the mesh; the victim cancels
// still-queued tasks and yields them directly back. The host never
// relays task frames on this path — it only learns of the migration via
// the thief's KindStealMoved, which re-points flight accounting.
//
// The mesh is the only way a task migrates, and stealing is an
// optimisation, never a correctness dependency: a failed send or a
// request unanswered past stealPending just clears the outstanding
// request, the thief asks again on a later pass, and the victim's queue
// still drains locally. A dead mesh link costs latency, never a
// re-dispatch.

// stealMin is the outstanding-task floor below which a domain is not
// worth stealing from.
const stealMin = 2

// stealPending is how long a direct steal request may go unanswered —
// victim killed, frame dropped by fault injection — before the thief
// forgets it and picks a victim afresh. Checked on load-map arrivals, so
// resolution is the host's tick.
const stealPending = 50 * time.Millisecond

// peerLoop services one inbound mesh channel through its receive slot,
// like dispatch: Kill cancels the parked receive.
func (w *worker) peerLoop(slot int, recv *mcapi.PktRecvHandle) {
	defer w.wg.Done()
	for {
		pkt, ok := w.recv(slot, recv.RecvI)
		if !ok {
			return
		}
		kind, ok := offload.FrameKind(pkt)
		if !ok {
			continue
		}
		// The loop owns each delivered packet exclusively, so shared
		// (aliasing) decodes are safe here.
		switch kind {
		case offload.KindPeerSteal:
			if m, err := offload.DecodePeerSteal(pkt); err == nil {
				w.peerYield(int(m.Thief), int(m.Want))
			}
		case offload.KindPeerYield:
			if m, err := offload.DecodePeerYieldShared(pkt); err == nil {
				w.acceptPeerYield(m.Victim, m.Task)
			}
		}
	}
}

// onLoadMap stores the host's occupancy broadcast and re-evaluates
// stealing: the map is both the victim-selection input and the clock
// that times out unanswered peer requests.
func (w *worker) onLoadMap(pkt []byte) {
	m, err := offload.DecodeLoadMap(pkt)
	if err != nil {
		return
	}
	w.loadMap.Store(&m.Occ)
	w.maybeSteal()
}

// maybeSteal sends a direct steal request when this worker is idle and a
// peer is loaded enough to be worth robbing. At most one request is
// outstanding at a time; one gone unanswered past stealPending is
// dropped and the same pass picks a victim again.
func (w *worker) maybeSteal() {
	if w.killed.Load() || len(w.peerSend) == 0 {
		return
	}
	w.qmu.Lock()
	idle := len(w.queued) == 0 && w.running == 0
	w.qmu.Unlock()
	if !idle {
		return
	}
	lm := w.loadMap.Load()
	if lm == nil {
		return
	}
	now := time.Now()
	w.stealMu.Lock()
	if w.stealVictim >= 0 && now.Sub(w.stealAt) < stealPending {
		w.stealMu.Unlock()
		return
	}
	w.stealVictim = -1
	victim, best := -1, uint32(stealMin)
	for i, occ := range *lm {
		dom := i + 1
		if dom == w.id {
			continue
		}
		if occ >= best && w.peerSend[dom] != nil {
			victim, best = dom, occ
		}
	}
	if victim < 0 {
		w.stealMu.Unlock()
		return
	}
	w.stealVictim, w.stealAt = victim, now
	w.stealMu.Unlock()

	want := best / 2
	if want == 0 {
		want = 1
	}
	pkt := offload.EncodePeerSteal(offload.PeerStealFrame{Thief: uint32(w.id), Want: want})
	err := w.peerSend[victim].Send(pkt, mcapi.TimeoutImmediate)
	offload.RecycleFrame(pkt)
	if err != nil {
		// Dead or saturated mesh link: forget the request, ask again later.
		w.stealMu.Lock()
		if w.stealVictim == victim {
			w.stealVictim = -1
		}
		w.stealMu.Unlock()
	}
}

// peerYield answers a direct steal request: cancel up to want queued
// tasks and ship them straight to the thief. A failed mesh send
// re-accepts the remaining tasks locally rather than strand them; the
// thief's stealPending timeout then lets it ask again.
func (w *worker) peerYield(thief, want int) {
	send := w.peerSend[thief]
	if send == nil || w.killed.Load() || want <= 0 {
		return
	}
	var yields []offload.TaskFrame
	w.qmu.Lock()
	for id, qt := range w.queued {
		if len(yields) >= want {
			break
		}
		if qt.mt == nil || qt.mt.Cancel() != nil {
			continue // about to run, or already running
		}
		delete(w.queued, id)
		yields = append(yields, qt.frame)
	}
	w.qmu.Unlock()
	if w.killed.Load() {
		// Killed mid-yield: canceled-but-unsent tasks die with the
		// domain. The host's flights still point here, so heartbeat loss
		// reclaims and re-dispatches every one of them.
		return
	}
	for i, fr := range yields {
		pkt := offload.EncodePeerYield(offload.PeerYieldFrame{Victim: uint32(w.id), Task: fr})
		err := send.Send(pkt, mcapi.TimeoutImmediate)
		offload.RecycleFrame(pkt)
		if err != nil {
			for _, rest := range yields[i:] {
				w.acceptFrame(rest)
			}
			break
		}
	}
}

// acceptPeerYield lands a directly-yielded task on this worker and tells
// the host to re-point its accounting. Duplicates (fault-injected dup
// frames) are rejected by acceptFrame, so KindStealMoved is sent at most
// once per landed task.
func (w *worker) acceptPeerYield(victim uint32, f offload.TaskFrame) {
	w.stealMu.Lock()
	if w.stealVictim == int(victim) {
		w.stealVictim = -1
	}
	w.stealMu.Unlock()
	if w.killed.Load() || !w.acceptFrame(f) {
		return
	}
	w.sendHost(offload.EncodeStealMoved(offload.StealMovedFrame{
		Task:   f.Task,
		Thief:  uint32(w.id),
		Victim: victim,
	}))
}
