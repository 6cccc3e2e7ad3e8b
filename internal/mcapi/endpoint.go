package mcapi

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"openmpmca/internal/syncq"
)

// EndpointAttributes configure an endpoint at creation.
type EndpointAttributes struct {
	// QueueDepth is the receive-queue capacity in messages/packets
	// (MCAPI_ENDPT_ATTR_NUM_RECV_BUFFERS); <= 0 selects
	// DefaultQueueDepth.
	QueueDepth int
}

// chanState tracks what a connection has turned the endpoint into.
type chanState int

const (
	stateFree chanState = iota
	statePktSend
	statePktRecv
	stateScalarSend
	stateScalarRecv
)

// message is one queued item: a connectionless message (with priority), a
// packet, or a scalar (with size tag).
type message struct {
	data       []byte
	priority   int
	scalar     uint64
	scalarSize int // bytes: 1, 2, 4, 8; 0 for byte payloads
}

// Endpoint is an MCAPI communication endpoint: the (domain, node, port)
// addressable queue all traffic lands in.
type Endpoint struct {
	node *Node
	port Port
	attr EndpointAttributes

	mu      sync.Mutex
	queues  [MaxPriority + 1][]message // priority-ordered receive queues
	queued  int
	state   chanState
	peer    *Endpoint // connected counterpart (both directions recorded)
	opened  bool
	deleted bool

	recvQ   syncq.WaitQueue // blocking receivers waiting for data
	sendQ   syncq.WaitQueue // blocking senders waiting for queue space
	pending []*Request      // parked receive requests, oldest first
}

func newEndpoint(n *Node, port Port, attr EndpointAttributes) *Endpoint {
	return &Endpoint{node: n, port: port, attr: attr}
}

// Node returns the owning node.
func (e *Endpoint) Node() *Node { return e.node }

// Port returns the endpoint's port.
func (e *Endpoint) Port() Port { return e.port }

func (e *Endpoint) String() string {
	return fmt.Sprintf("mcapi.Endpoint(d%d,n%d,p%d)", e.node.domain, e.node.id, e.port)
}

// Delete removes the endpoint (mcapi_endpoint_delete); blocked callers are
// woken, parked requests fail with ErrEndpInvalid, and a connected peer
// is disconnected (its parked requests fail with ErrChanNotOpen).
func (e *Endpoint) Delete() error {
	e.mu.Lock()
	if e.deleted {
		e.mu.Unlock()
		return ErrEndpInvalid
	}
	e.deleted = true
	peer := e.peer
	e.peer = nil
	e.state = stateFree
	e.recvQ.Broadcast()
	e.sendQ.Broadcast()
	e.failPending(ErrEndpInvalid)
	e.mu.Unlock()

	if peer != nil {
		peer.mu.Lock()
		if peer.peer == e {
			peer.peer = nil
			peer.state = stateFree
			peer.recvQ.Broadcast()
			peer.sendQ.Broadcast()
			peer.failPending(ErrChanNotOpen)
		}
		peer.mu.Unlock()
	}

	e.node.mu.Lock()
	delete(e.node.endpoints, e.port)
	e.node.mu.Unlock()
	return nil
}

// wait adapts syncq to MCAPI timeouts; callers hold e.mu.
func wait(q *syncq.WaitQueue, mu *sync.Mutex, timeout Timeout) Status {
	if timeout == TimeoutImmediate {
		return ErrTimeout
	}
	if q.Wait(mu, time.Duration(timeout), timeout == TimeoutInfinite) {
		return Success
	}
	return ErrTimeout
}

// enqueue hands a message to the oldest parked receive request, or else
// appends it at its priority, blocking while the queue is full. Callers
// must NOT hold e.mu.
func (e *Endpoint) enqueue(m message, timeout Timeout) error {
	if m.priority < 0 || m.priority > MaxPriority {
		return ErrPriority
	}
	e.mu.Lock()
	for {
		if e.deleted {
			e.mu.Unlock()
			return ErrEndpInvalid
		}
		if len(e.pending) > 0 {
			r := e.pending[0]
			e.pending = slices.Delete(e.pending, 0, 1)
			r.complete(m.data, m.priority, nil)
			e.mu.Unlock()
			return nil
		}
		if e.queued < e.attr.QueueDepth {
			e.queues[m.priority] = append(e.queues[m.priority], m)
			e.queued++
			e.recvQ.Signal()
			e.mu.Unlock()
			return nil
		}
		if st := wait(&e.sendQ, &e.mu, timeout); st != Success {
			e.mu.Unlock()
			return st
		}
	}
}

// pop removes the highest-priority oldest message and wakes one blocked
// sender; callers hold e.mu.
func (e *Endpoint) pop() (message, bool) {
	for p := range e.queues {
		if len(e.queues[p]) > 0 {
			m := e.queues[p][0]
			e.queues[p] = e.queues[p][1:]
			e.queued--
			e.sendQ.Signal()
			return m, true
		}
	}
	return message{}, false
}

// dequeue removes the highest-priority oldest message, blocking while
// empty.
func (e *Endpoint) dequeue(timeout Timeout) (message, error) {
	e.mu.Lock()
	for {
		if e.deleted {
			e.mu.Unlock()
			return message{}, ErrEndpInvalid
		}
		if m, ok := e.pop(); ok {
			e.mu.Unlock()
			return m, nil
		}
		if st := wait(&e.recvQ, &e.mu, timeout); st != Success {
			e.mu.Unlock()
			return message{}, st
		}
	}
}

// recvRequest is the one receive-request path: outside channel state want,
// or on a channel not opened, the request fails with stateErr; otherwise
// it takes a queued message or parks on e.pending until enqueue, Cancel
// or a teardown (Delete, Close, connect) settles it under e.mu.
func (e *Endpoint) recvRequest(want chanState, stateErr Status) *Request {
	r := &Request{doneCh: make(chan struct{}), ep: e}
	e.mu.Lock()
	defer e.mu.Unlock()
	switch {
	case e.state != want || (want != stateFree && !e.opened):
		r.complete(nil, 0, stateErr)
	case e.deleted:
		r.complete(nil, 0, ErrEndpInvalid)
	default:
		if m, ok := e.pop(); ok {
			r.complete(m.data, m.priority, nil)
		} else {
			e.pending = append(e.pending, r)
		}
	}
	return r
}

// failPending settles every parked request with err; callers hold e.mu.
func (e *Endpoint) failPending(err Status) {
	for _, r := range e.pending {
		r.complete(nil, 0, err)
	}
	e.pending = nil
}

// Available reports queued items (mcapi_msg_available /
// mcapi_pktchan_available).
func (e *Endpoint) Available() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.queued
}

// EndpointAttribute selects an attribute for Attribute
// (mcapi_endpoint_get_attribute).
type EndpointAttribute int

const (
	// AttrQueueDepth is the receive-queue capacity
	// (MCAPI_ENDPT_ATTR_NUM_RECV_BUFFERS).
	AttrQueueDepth EndpointAttribute = iota
	// AttrQueued is the number of currently queued items
	// (MCAPI_ENDPT_ATTR_RECV_BUFFERS_AVAILABLE reports the complement).
	AttrQueued
	// AttrConnected reports 1 when the endpoint is bound into a channel
	// (MCAPI_ENDPT_ATTR_CHAN_TYPE != none).
	AttrConnected
)

// Attribute queries one endpoint attribute (mcapi_endpoint_get_attribute).
func (e *Endpoint) Attribute(a EndpointAttribute) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.deleted {
		return 0, ErrEndpInvalid
	}
	switch a {
	case AttrQueueDepth:
		return e.attr.QueueDepth, nil
	case AttrQueued:
		return e.queued, nil
	case AttrConnected:
		if e.state != stateFree {
			return 1, nil
		}
		return 0, nil
	}
	return 0, ErrParameterInvalid
}

// ----- connectionless messages -----

// MsgSend sends data to endpoint `to` with the given priority
// (mcapi_msg_send). The payload is copied. Blocks while the destination
// queue is full, up to timeout.
func MsgSend(to *Endpoint, data []byte, priority int, timeout Timeout) error {
	if len(data) > MaxMsgSize {
		return ErrMemLimit
	}
	to.mu.Lock()
	st := to.state
	to.mu.Unlock()
	if st != stateFree {
		// Connected endpoints carry channel traffic only.
		return ErrChanConnected
	}
	switch d := injectFault(FaultMsg, nil, to, len(data)); d.Action {
	case FaultDrop:
		return nil
	case FaultDup:
		buf := append([]byte(nil), data...)
		if err := to.enqueue(message{data: buf, priority: priority}, timeout); err != nil {
			return err
		}
		dup := append([]byte(nil), data...)
		_ = to.enqueue(message{data: dup, priority: priority}, TimeoutImmediate)
		return nil
	}
	buf := append([]byte(nil), data...)
	return to.enqueue(message{data: buf, priority: priority}, timeout)
}

// MsgRecv receives the next message (highest priority first), blocking up
// to timeout (mcapi_msg_recv). It returns the payload and its priority.
func MsgRecv(from *Endpoint, timeout Timeout) ([]byte, int, error) {
	from.mu.Lock()
	st := from.state
	from.mu.Unlock()
	if st != stateFree {
		return nil, 0, ErrChanConnected
	}
	m, err := from.dequeue(timeout)
	if err != nil {
		return nil, 0, err
	}
	return m.data, m.priority, nil
}
