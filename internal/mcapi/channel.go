package mcapi

// Packet and scalar channels: connected, unidirectional, FIFO pipes
// between exactly two endpoints — MCAPI's high-throughput alternative to
// connectionless messages.

// PktConnect connects a send endpoint to a receive endpoint as a packet
// channel (mcapi_pktchan_connect_i, completed synchronously). Both
// endpoints must be free.
func PktConnect(send, recv *Endpoint) error {
	return connect(send, recv, statePktSend, statePktRecv)
}

// ScalarConnect connects a scalar channel (mcapi_sclchan_connect_i).
func ScalarConnect(send, recv *Endpoint) error {
	return connect(send, recv, stateScalarSend, stateScalarRecv)
}

// connect pairs two endpoints with the given directional states. Locks
// are taken in a global order (node ids, then port) to avoid deadlock
// with a concurrent reverse connect.
func connect(send, recv *Endpoint, sendState, recvState chanState) error {
	if send == recv {
		return ErrChanConnected
	}
	first, second := send, recv
	if endpointLess(recv, send) {
		first, second = recv, send
	}
	first.mu.Lock()
	second.mu.Lock()
	defer first.mu.Unlock()
	defer second.mu.Unlock()
	if send.deleted || recv.deleted {
		return ErrEndpInvalid
	}
	if send.state != stateFree || recv.state != stateFree {
		return ErrChanConnected
	}
	if send.queued > 0 || recv.queued > 0 {
		// Pending connectionless traffic cannot be reinterpreted.
		return ErrChanOpen
	}
	send.state = sendState
	recv.state = recvState
	send.peer = recv
	recv.peer = send
	// Parked connectionless receives cannot be reinterpreted either.
	send.failPending(ErrChanConnected)
	recv.failPending(ErrChanConnected)
	return nil
}

func endpointLess(a, b *Endpoint) bool {
	if a.node.domain != b.node.domain {
		return a.node.domain < b.node.domain
	}
	if a.node.id != b.node.id {
		return a.node.id < b.node.id
	}
	return a.port < b.port
}

// ----- packet channels -----

// PktSendHandle is the send side of an open packet channel.
type PktSendHandle struct{ ep *Endpoint }

// PktRecvHandle is the receive side of an open packet channel.
type PktRecvHandle struct{ ep *Endpoint }

// PktOpenSend opens the send side (mcapi_pktchan_send_open_i).
func PktOpenSend(ep *Endpoint) (*PktSendHandle, error) {
	if err := open(ep, statePktSend); err != nil {
		return nil, err
	}
	return &PktSendHandle{ep: ep}, nil
}

// PktOpenRecv opens the receive side (mcapi_pktchan_recv_open_i).
func PktOpenRecv(ep *Endpoint) (*PktRecvHandle, error) {
	if err := open(ep, statePktRecv); err != nil {
		return nil, err
	}
	return &PktRecvHandle{ep: ep}, nil
}

func open(ep *Endpoint, want chanState) error {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	switch {
	case ep.deleted:
		return ErrEndpInvalid
	case ep.state == stateFree:
		return ErrChanNotConnect
	case ep.state != want:
		return ErrChanDirection
	case ep.opened:
		return ErrChanOpen
	}
	ep.opened = true
	return nil
}

// Send transmits one packet over the channel (mcapi_pktchan_send). The
// payload is copied; blocks while the peer's queue is full.
func (h *PktSendHandle) Send(data []byte, timeout Timeout) error {
	h.ep.mu.Lock()
	peer := h.ep.peer
	ok := h.ep.opened && h.ep.state == statePktSend
	h.ep.mu.Unlock()
	if !ok {
		return ErrChanNotOpen
	}
	if peer == nil {
		return ErrChanNotConnect
	}
	switch d := injectFault(FaultPkt, h.ep, peer, len(data)); d.Action {
	case FaultDrop:
		// The wire ate the frame; the sender sees success.
		return nil
	case FaultDup:
		buf := append([]byte(nil), data...)
		if err := peer.enqueue(message{data: buf}, timeout); err != nil {
			return err
		}
		dup := append([]byte(nil), data...)
		_ = peer.enqueue(message{data: dup}, TimeoutImmediate) // best-effort copy
		return nil
	}
	buf := append([]byte(nil), data...)
	return peer.enqueue(message{data: buf}, timeout)
}

// Recv receives the next packet (mcapi_pktchan_recv).
func (h *PktRecvHandle) Recv(timeout Timeout) ([]byte, error) {
	h.ep.mu.Lock()
	ok := h.ep.opened && h.ep.state == statePktRecv
	h.ep.mu.Unlock()
	if !ok {
		return nil, ErrChanNotOpen
	}
	m, err := h.ep.dequeue(timeout)
	if err != nil {
		return nil, err
	}
	return m.data, nil
}

// RecvI is the non-blocking packet receive (mcapi_pktchan_recv_i): the
// request takes the next queued packet, or parks until one arrives.
// Bound it with Wait(timeout); abandon it with Cancel. Close or either
// endpoint's deletion fails a parked request.
func (h *PktRecvHandle) RecvI() *Request {
	return h.ep.recvRequest(statePktRecv, ErrChanNotOpen)
}

// Available reports queued packets on the receive side.
func (h *PktRecvHandle) Available() int { return h.ep.Available() }

// Close closes the send side (mcapi_pktchan_send_close_i).
func (h *PktSendHandle) Close() error { return closeHandle(h.ep) }

// Close closes the receive side (mcapi_pktchan_recv_close_i).
func (h *PktRecvHandle) Close() error { return closeHandle(h.ep) }

func closeHandle(ep *Endpoint) error {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if !ep.opened {
		return ErrChanNotOpen
	}
	ep.opened = false
	ep.failPending(ErrChanNotOpen)
	return nil
}

// ----- scalar channels -----

// ScalarSendHandle is the send side of an open scalar channel.
type ScalarSendHandle struct{ ep *Endpoint }

// ScalarRecvHandle is the receive side of an open scalar channel.
type ScalarRecvHandle struct{ ep *Endpoint }

// ScalarOpenSend opens the send side (mcapi_sclchan_send_open_i).
func ScalarOpenSend(ep *Endpoint) (*ScalarSendHandle, error) {
	if err := open(ep, stateScalarSend); err != nil {
		return nil, err
	}
	return &ScalarSendHandle{ep: ep}, nil
}

// ScalarOpenRecv opens the receive side (mcapi_sclchan_recv_open_i).
func ScalarOpenRecv(ep *Endpoint) (*ScalarRecvHandle, error) {
	if err := open(ep, stateScalarRecv); err != nil {
		return nil, err
	}
	return &ScalarRecvHandle{ep: ep}, nil
}

// Close closes the send side.
func (h *ScalarSendHandle) Close() error { return closeHandle(h.ep) }

// Close closes the receive side.
func (h *ScalarRecvHandle) Close() error { return closeHandle(h.ep) }

// send pushes one scalar of the given byte size.
func (h *ScalarSendHandle) send(v uint64, size int, timeout Timeout) error {
	h.ep.mu.Lock()
	peer := h.ep.peer
	ok := h.ep.opened && h.ep.state == stateScalarSend
	h.ep.mu.Unlock()
	if !ok {
		return ErrChanNotOpen
	}
	if peer == nil {
		return ErrChanNotConnect
	}
	return peer.enqueue(message{scalar: v, scalarSize: size}, timeout)
}

// recv pops one scalar, enforcing MCAPI's size-match rule: receiving a
// scalar with the wrong-width call is ErrChanTypeMatch.
func (h *ScalarRecvHandle) recv(size int, timeout Timeout) (uint64, error) {
	h.ep.mu.Lock()
	ok := h.ep.opened && h.ep.state == stateScalarRecv
	h.ep.mu.Unlock()
	if !ok {
		return 0, ErrChanNotOpen
	}
	m, err := h.ep.dequeue(timeout)
	if err != nil {
		return 0, err
	}
	if m.scalarSize != size {
		return 0, ErrChanTypeMatch
	}
	return m.scalar, nil
}

// SendUint64 sends a 64-bit scalar (mcapi_sclchan_send_uint64).
func (h *ScalarSendHandle) SendUint64(v uint64, timeout Timeout) error { return h.send(v, 8, timeout) }

// SendUint32 sends a 32-bit scalar.
func (h *ScalarSendHandle) SendUint32(v uint32, timeout Timeout) error {
	return h.send(uint64(v), 4, timeout)
}

// SendUint16 sends a 16-bit scalar.
func (h *ScalarSendHandle) SendUint16(v uint16, timeout Timeout) error {
	return h.send(uint64(v), 2, timeout)
}

// SendUint8 sends an 8-bit scalar.
func (h *ScalarSendHandle) SendUint8(v uint8, timeout Timeout) error {
	return h.send(uint64(v), 1, timeout)
}

// RecvUint64 receives a 64-bit scalar (mcapi_sclchan_recv_uint64).
func (h *ScalarRecvHandle) RecvUint64(timeout Timeout) (uint64, error) { return h.recv(8, timeout) }

// RecvUint32 receives a 32-bit scalar.
func (h *ScalarRecvHandle) RecvUint32(timeout Timeout) (uint32, error) {
	v, err := h.recv(4, timeout)
	return uint32(v), err
}

// RecvUint16 receives a 16-bit scalar.
func (h *ScalarRecvHandle) RecvUint16(timeout Timeout) (uint16, error) {
	v, err := h.recv(2, timeout)
	return uint16(v), err
}

// RecvUint8 receives an 8-bit scalar.
func (h *ScalarRecvHandle) RecvUint8(timeout Timeout) (uint8, error) {
	v, err := h.recv(1, timeout)
	return uint8(v), err
}
