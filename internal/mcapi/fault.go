package mcapi

// Transport fault injection: a process-wide hook consulted on every
// packet-channel and connectionless-message send. The hook exists for
// the chaos subsystem (internal/chaos): campaigns install an injector
// that drops, duplicates or delays frames to prove the protocols above
// MCAPI — chunk retry/dedup in internal/offload, task deadlines and
// re-dispatch in internal/taskfabric, heartbeat grace in both — recover
// to byte-exact results. With no injector installed (the default) the
// hook is one atomic load on the send path.
//
// Faults model the wire, not the API: a dropped send still returns
// success to the caller, exactly as a lossy interconnect would ack a
// frame that never arrives. Duplicates are enqueued best-effort (a full
// peer queue drops the copy, never blocks the sender), and delays are
// served synchronously on the sender — a slow link applies
// backpressure and preserves FIFO ordering.

import (
	"sync/atomic"
	"time"
)

// FaultClass is the traffic class of a faultable send.
type FaultClass int

// Traffic classes the injector can distinguish.
const (
	// FaultPkt is a packet-channel send (PktSendHandle.Send) — task
	// descriptors, results, peer-steal requests and yields.
	FaultPkt FaultClass = iota
	// FaultMsg is a connectionless message send (MsgSend) — heartbeat
	// pings and pongs, boot traffic.
	FaultMsg
	// FaultScalar is a scalar-channel send (reserved; no injection
	// point yet).
	FaultScalar
)

// FaultAction is the injector's verdict on one send.
type FaultAction int

// Verdicts.
const (
	FaultPass  FaultAction = iota // deliver normally
	FaultDrop                     // lose the frame; the send still reports success
	FaultDup                      // deliver, then enqueue a best-effort duplicate
	FaultDelay                    // sleep Delay on the sender, then deliver
)

// FaultTarget names one side of a transfer for the injector.
type FaultTarget struct {
	Domain int // MCAPI domain id
	Node   int // node id within the domain
	Port   int // endpoint port
}

// FaultDecision is the injector's answer: an action, plus the hold time
// when the action is FaultDelay.
type FaultDecision struct {
	Action FaultAction
	Delay  time.Duration
}

// FaultInjector decides the fate of one send. It runs on the sender's
// goroutine under no locks; it must be safe for concurrent use and
// should be fast — every send in the process consults it.
type FaultInjector func(class FaultClass, from, to FaultTarget, size int) FaultDecision

var faultInjector atomic.Pointer[FaultInjector]

// SetFaultInjector installs (or, with nil, removes) the process-wide
// fault injector. Intended for tests and the chaos runner; production
// paths leave it unset.
func SetFaultInjector(f FaultInjector) {
	if f == nil {
		faultInjector.Store(nil)
		return
	}
	faultInjector.Store(&f)
}

// faultTargetOf snapshots an endpoint's identity. A nil endpoint (no
// peer resolved yet) is reported as {-1,-1,-1}.
func faultTargetOf(ep *Endpoint) FaultTarget {
	if ep == nil {
		return FaultTarget{Domain: -1, Node: -1, Port: -1}
	}
	return FaultTarget{Domain: int(ep.node.domain), Node: int(ep.node.id), Port: int(ep.port)}
}

// injectFault consults the installed injector for one send. It returns
// the decision to apply; with no injector installed it returns
// FaultPass without allocating.
func injectFault(class FaultClass, from, to *Endpoint, size int) FaultDecision {
	p := faultInjector.Load()
	if p == nil {
		return FaultDecision{}
	}
	d := (*p)(class, faultTargetOf(from), faultTargetOf(to), size)
	if d.Action == FaultDelay && d.Delay > 0 {
		time.Sleep(d.Delay)
		// The frame was only held, not harmed: deliver it normally.
		d.Action = FaultPass
	}
	return d
}
