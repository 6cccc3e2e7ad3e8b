package offload

import (
	"sync/atomic"
	"time"

	"openmpmca/internal/mcapi"
	"openmpmca/internal/oerrors"
)

// Host-side domain health tracking for the task fabric
// (internal/taskfabric): periodic MCAPI pings answered by pongs, a
// domain silent past a deadline declared lost, and a restarted domain
// readmitted by resetting the pong clock first and clearing the lost
// flag second, so the monitor cannot immediately re-declare it dead.

// ErrDomainLost marks work during which a worker domain died. The
// result is still complete and correct — the lost domain's tasks or
// chunks were re-executed elsewhere — so callers that can tolerate
// degraded capacity may treat it as a warning. Classified
// Domain/domain_lost.
var ErrDomainLost = oerrors.Sentinel(oerrors.Domain, oerrors.CodeDomainLost,
	"offload: worker domain lost")

// HealthState is the host's liveness record for one worker domain. The
// zero value is a live domain that has never ponged; call RecordPong (or
// Readmit) to start its clock.
type HealthState struct {
	lost     atomic.Bool
	lastPong atomic.Int64 // unix nanos of the latest pong
}

// Lost reports whether the domain is currently declared lost.
func (h *HealthState) Lost() bool { return h.lost.Load() }

// MarkLost transitions live -> lost exactly once; it reports whether
// this call made the transition.
func (h *HealthState) MarkLost() bool { return h.lost.CompareAndSwap(false, true) }

// RecordPong notes a pong received at the given unix-nano time.
func (h *HealthState) RecordPong(now int64) { h.lastPong.Store(now) }

// StartClock stamps a never-ponged peer's clock: the zero value's
// lastPong of 0 compares against the unix epoch, which would read as
// instantly expired the moment a monitor looks at it. Stamping only the
// zero value keeps a real pong timestamp intact. It reports whether the
// clock was actually started by this call.
func (h *HealthState) StartClock(now int64) bool {
	return h.lastPong.CompareAndSwap(0, now)
}

// Expired reports whether the domain has been silent longer than
// lostAfter as of now.
func (h *HealthState) Expired(now int64, lostAfter time.Duration) bool {
	return now-h.lastPong.Load() > int64(lostAfter)
}

// Silence reports how long the domain has been quiet: the age of the
// last pong as of now. For a lost domain the clock froze at the final
// pong, so this is the "last-pong age" loss errors report.
func (h *HealthState) Silence() time.Duration {
	return time.Duration(time.Now().UnixNano() - h.lastPong.Load())
}

// Readmit transitions lost -> live for a domain that restarted: the pong
// clock is reset before the flag flips so the health monitor sees a
// fresh domain. It reports whether the domain was actually lost (a live
// domain cannot be readmitted).
func (h *HealthState) Readmit(now int64) bool {
	if !h.lost.Load() {
		return false
	}
	h.lastPong.Store(now)
	return h.lost.CompareAndSwap(true, false)
}

// HealthPeer is one monitored worker domain as the health monitor sees
// it: its liveness record plus the two heartbeat endpoints.
type HealthPeer struct {
	ID       int             // worker domain ID (for ping frames)
	State    *HealthState    // shared liveness record
	PingTo   *mcapi.Endpoint // worker endpoint pings are sent to
	PongFrom *mcapi.Endpoint // host endpoint pongs arrive on
}

// MonitorHealth runs the host-side heartbeat loop until stop closes:
// each period it drains pongs into every live peer's state, declares
// peers silent past lostAfter lost (calling onLost once per transition),
// and pings the survivors. onPong, if non-nil, is called per accepted
// pong — the fabric uses it to count heartbeats. A peer readmitted
// via HealthState.Readmit re-enters the ping rotation automatically.
//
// Two failure modes are handled explicitly rather than silently:
//
//   - A peer whose clock was never started (zero-value HealthState) has
//     lastPong == 0, which compares against the unix epoch and would read
//     as expired on the very first tick. Every peer's clock is stamped
//     when the loop starts, so a slow first pong cannot be declared lost
//     at t=0.
//   - Pings are sent non-blocking, so a briefly-full send queue drops
//     the ping. A dropped ping means the silence that follows is the
//     host's fault, not the domain's: each drop is counted via onDrop
//     (if non-nil) and grants the peer one extra tick — the ping is
//     retried before the loss deadline may fire, instead of
//     false-positiving a healthy domain as lost.
func MonitorHealth(stop <-chan struct{}, period, lostAfter time.Duration,
	peers []HealthPeer, onLost func(peer int), onPong func(), onDrop func()) {
	tick := time.NewTicker(period)
	defer tick.Stop()
	start := time.Now().UnixNano()
	dropped := make([]bool, len(peers)) // last ping send failed
	graced := make([]bool, len(peers))  // retry grace already spent this episode
	for _, p := range peers {
		p.State.StartClock(start)
	}
	var seq uint64
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		now := time.Now().UnixNano()
		for i, p := range peers {
			if p.State.Lost() {
				continue
			}
			for {
				msg, _, err := mcapi.MsgRecv(p.PongFrom, mcapi.TimeoutImmediate)
				if err != nil {
					break
				}
				if _, derr := decodeHB(kindPong, msg); derr == nil {
					p.State.RecordPong(now)
					if onPong != nil {
						onPong()
					}
				}
			}
			if p.State.Expired(now, lostAfter) {
				if dropped[i] && !graced[i] {
					// The last ping never left the host, so the silence
					// is self-inflicted; spend one retry tick before
					// judging the peer. The grace is bounded: a peer that
					// stays unreachable expires on the next tick.
					graced[i] = true
				} else {
					if p.State.MarkLost() {
						onLost(i)
					}
					continue
				}
			}
			seq++
			ping := encodeHB(kindPing, hbMsg{Domain: uint32(p.ID), Seq: seq})
			err := mcapi.MsgSend(p.PingTo, ping, 0, mcapi.TimeoutImmediate)
			RecycleFrame(ping)
			if err != nil {
				dropped[i] = true
				if onDrop != nil {
					onDrop()
				}
			} else {
				dropped[i] = false
				graced[i] = false
			}
		}
	}
}
