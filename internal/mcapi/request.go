package mcapi

import (
	"reflect"
	"slices"
	"sync"
	"time"
)

// Request is a handle to a non-blocking MCAPI operation (mcapi_request_t):
// Test polls it, Wait blocks on it, Cancel attempts to abort it. A pending
// receive request is parked on ep, settled under ep.mu (ep.mu → r.mu).
type Request struct {
	mu       sync.Mutex
	done     bool
	err      error
	data     []byte
	priority int
	doneCh   chan struct{}
	ep       *Endpoint // receive requests only
}

// complete records the operation outcome unless the request is already
// settled.
func (r *Request) complete(data []byte, priority int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done {
		return
	}
	r.done = true
	r.data = data
	r.priority = priority
	r.err = err
	close(r.doneCh)
}

// Test reports whether the operation finished (mcapi_test); when it has,
// the second result carries the operation error, if any.
func (r *Request) Test() (finished bool, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.done, r.err
}

// Wait blocks up to timeout for completion (mcapi_wait). On ErrTimeout
// the request is still pending: wait again, or Cancel it.
func (r *Request) Wait(timeout Timeout) error {
	if timeout == TimeoutInfinite {
		<-r.doneCh
	} else {
		t := time.NewTimer(time.Duration(timeout))
		defer t.Stop()
		select {
		case <-r.doneCh:
		case <-t.C:
			return ErrTimeout
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Cancel aborts a pending operation (mcapi_cancel); a completed request
// returns ErrRequestInvalid. A receive request is unparked under its
// endpoint's lock, so a won cancel consumes nothing: the message it
// would have taken stays queued.
func (r *Request) Cancel() error {
	if e := r.ep; e != nil {
		e.mu.Lock()
		defer e.mu.Unlock()
		if i := slices.Index(e.pending, r); i >= 0 {
			e.pending = slices.Delete(e.pending, i, i+1)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.done {
		return ErrRequestInvalid
	}
	r.done = true
	r.err = ErrRequestCanceled
	close(r.doneCh)
	return nil
}

// Payload returns a completed receive's data and priority.
func (r *Request) Payload() ([]byte, int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.done {
		return nil, 0, ErrRequestInvalid
	}
	return r.data, r.priority, r.err
}

// WaitAny blocks until one of the requests completes and returns its
// index (mcapi_wait_any). With an empty set it returns ErrRequestInvalid.
// It selects over the requests' done channels itself, so a call that
// times out leaves nothing behind.
func WaitAny(reqs []*Request, timeout Timeout) (int, error) {
	if len(reqs) == 0 {
		return -1, ErrRequestInvalid
	}
	// Fast path: something already done.
	for i, r := range reqs {
		if done, _ := r.Test(); done {
			return i, nil
		}
	}
	cases := make([]reflect.SelectCase, len(reqs), len(reqs)+1)
	for i, r := range reqs {
		cases[i] = reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(r.doneCh)}
	}
	if timeout != TimeoutInfinite {
		t := time.NewTimer(time.Duration(timeout))
		defer t.Stop()
		cases = append(cases, reflect.SelectCase{Dir: reflect.SelectRecv, Chan: reflect.ValueOf(t.C)})
	}
	if i, _, _ := reflect.Select(cases); i < len(reqs) {
		return i, nil
	}
	return -1, ErrTimeout
}

// MsgSendI is the non-blocking message send (mcapi_msg_send_i): it
// returns immediately with a Request that completes when the message is
// queued at the destination.
func MsgSendI(to *Endpoint, data []byte, priority int) *Request {
	r := &Request{doneCh: make(chan struct{})}
	buf := append([]byte(nil), data...)
	go func() {
		err := MsgSend(to, buf, priority, TimeoutInfinite)
		r.complete(nil, priority, err)
	}()
	return r
}

// MsgRecvI is the non-blocking message receive (mcapi_msg_recv_i): the
// request takes the highest-priority queued message, or parks until the
// next arrives. Bound it with Wait(timeout); abandon it with Cancel.
func MsgRecvI(from *Endpoint) *Request {
	return from.recvRequest(stateFree, ErrChanConnected)
}
