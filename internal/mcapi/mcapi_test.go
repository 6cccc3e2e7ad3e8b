package mcapi

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

func twoEndpoints(t *testing.T) (*System, *Endpoint, *Endpoint) {
	t.Helper()
	sys := NewSystem()
	n1, err := sys.Initialize(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := sys.Initialize(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := n1.CreateEndpoint(10, nil)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := n2.CreateEndpoint(20, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sys, e1, e2
}

func TestNodeLifecycle(t *testing.T) {
	sys := NewSystem()
	n, err := sys.Initialize(3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if n.Domain() != 3 || n.ID() != 7 {
		t.Errorf("ids = %d/%d", n.Domain(), n.ID())
	}
	if _, err := sys.Initialize(3, 7); !errors.Is(err, ErrNodeInitFailed) {
		t.Errorf("duplicate init = %v", err)
	}
	ep, err := n.CreateEndpoint(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := n.Finalize(); !errors.Is(err, ErrNodeNotInit) {
		t.Errorf("double finalize = %v", err)
	}
	// Finalize deletes endpoints.
	if _, err := sys.GetEndpoint(3, 7, 1); !errors.Is(err, ErrEndpInvalid) {
		t.Errorf("endpoint survived finalize: %v", err)
	}
	if err := MsgSend(ep, []byte("x"), 0, TimeoutImmediate); !errors.Is(err, ErrEndpInvalid) {
		t.Errorf("send to deleted endpoint = %v", err)
	}
	// Node id reusable.
	if _, err := sys.Initialize(3, 7); err != nil {
		t.Errorf("re-init after finalize: %v", err)
	}
}

func TestEndpointCreation(t *testing.T) {
	sys := NewSystem()
	n, _ := sys.Initialize(1, 1)
	if _, err := n.CreateEndpoint(5, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := n.CreateEndpoint(5, nil); !errors.Is(err, ErrEndpExists) {
		t.Errorf("duplicate port = %v", err)
	}
	// PortAny picks unused ports.
	a, err := n.CreateEndpoint(PortAny, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.CreateEndpoint(PortAny, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Port() == b.Port() || a.Port() == 5 || b.Port() == 5 {
		t.Errorf("PortAny ports = %d, %d", a.Port(), b.Port())
	}
	got, err := sys.GetEndpoint(1, 1, a.Port())
	if err != nil || got != a {
		t.Errorf("GetEndpoint = %v, %v", got, err)
	}
	if _, err := sys.GetEndpoint(9, 9, 0); !errors.Is(err, ErrEndpInvalid) {
		t.Errorf("unknown endpoint = %v", err)
	}
}

func TestMsgRoundTrip(t *testing.T) {
	_, e1, e2 := twoEndpoints(t)
	_ = e1
	if err := MsgSend(e2, []byte("hello"), 1, TimeoutInfinite); err != nil {
		t.Fatal(err)
	}
	if e2.Available() != 1 {
		t.Errorf("Available = %d", e2.Available())
	}
	data, prio, err := MsgRecv(e2, TimeoutInfinite)
	if err != nil || string(data) != "hello" || prio != 1 {
		t.Errorf("recv = %q, %d, %v", data, prio, err)
	}
}

func TestMsgPriorityOrdering(t *testing.T) {
	_, _, e2 := twoEndpoints(t)
	_ = MsgSend(e2, []byte("low"), 3, TimeoutInfinite)
	_ = MsgSend(e2, []byte("mid"), 1, TimeoutInfinite)
	_ = MsgSend(e2, []byte("high"), 0, TimeoutInfinite)
	_ = MsgSend(e2, []byte("mid2"), 1, TimeoutInfinite)
	want := []string{"high", "mid", "mid2", "low"}
	for _, w := range want {
		data, _, err := MsgRecv(e2, TimeoutImmediate)
		if err != nil || string(data) != w {
			t.Fatalf("recv = %q, %v, want %q", data, err, w)
		}
	}
}

func TestMsgValidation(t *testing.T) {
	_, _, e2 := twoEndpoints(t)
	if err := MsgSend(e2, []byte("x"), 9, TimeoutInfinite); !errors.Is(err, ErrPriority) {
		t.Errorf("bad priority = %v", err)
	}
	if err := MsgSend(e2, make([]byte, MaxMsgSize+1), 0, TimeoutInfinite); !errors.Is(err, ErrMemLimit) {
		t.Errorf("oversized = %v", err)
	}
	if _, _, err := MsgRecv(e2, TimeoutImmediate); !errors.Is(err, ErrTimeout) {
		t.Errorf("empty recv = %v", err)
	}
}

func TestMsgBackpressure(t *testing.T) {
	sys := NewSystem()
	n, _ := sys.Initialize(1, 1)
	ep, _ := n.CreateEndpoint(1, &EndpointAttributes{QueueDepth: 2})
	_ = MsgSend(ep, []byte("a"), 0, TimeoutInfinite)
	_ = MsgSend(ep, []byte("b"), 0, TimeoutInfinite)
	if err := MsgSend(ep, []byte("c"), 0, TimeoutImmediate); !errors.Is(err, ErrTimeout) {
		t.Fatalf("full queue send = %v", err)
	}
	// A blocked sender proceeds once the receiver drains.
	done := make(chan error, 1)
	go func() { done <- MsgSend(ep, []byte("c"), 0, TimeoutInfinite) }()
	time.Sleep(5 * time.Millisecond)
	if _, _, err := MsgRecv(ep, TimeoutInfinite); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("unblocked send: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("sender never unblocked")
	}
}

func TestMsgSendCopiesPayload(t *testing.T) {
	_, _, e2 := twoEndpoints(t)
	buf := []byte("immutable")
	_ = MsgSend(e2, buf, 0, TimeoutInfinite)
	buf[0] = 'X'
	data, _, _ := MsgRecv(e2, TimeoutInfinite)
	if string(data) != "immutable" {
		t.Errorf("payload aliased sender buffer: %q", data)
	}
}

func TestPktChannel(t *testing.T) {
	_, e1, e2 := twoEndpoints(t)
	if err := PktConnect(e1, e2); err != nil {
		t.Fatal(err)
	}
	// Connected endpoints refuse connectionless traffic.
	if err := MsgSend(e2, []byte("x"), 0, TimeoutImmediate); !errors.Is(err, ErrChanConnected) {
		t.Errorf("msg on connected endpoint = %v", err)
	}
	send, err := PktOpenSend(e1)
	if err != nil {
		t.Fatal(err)
	}
	recv, err := PktOpenRecv(e2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := send.Send([]byte{byte(i), byte(i + 1)}, TimeoutInfinite); err != nil {
			t.Fatal(err)
		}
	}
	if recv.Available() != 10 {
		t.Errorf("Available = %d", recv.Available())
	}
	for i := 0; i < 10; i++ {
		data, err := recv.Recv(TimeoutInfinite)
		if err != nil || !bytes.Equal(data, []byte{byte(i), byte(i + 1)}) {
			t.Fatalf("pkt %d = %v, %v", i, data, err)
		}
	}
	if err := send.Close(); err != nil {
		t.Fatal(err)
	}
	if err := send.Send([]byte("x"), TimeoutInfinite); !errors.Is(err, ErrChanNotOpen) {
		t.Errorf("send after close = %v", err)
	}
}

func TestPktConnectValidation(t *testing.T) {
	_, e1, e2 := twoEndpoints(t)
	if err := PktConnect(e1, e1); !errors.Is(err, ErrChanConnected) {
		t.Errorf("self connect = %v", err)
	}
	if _, err := PktOpenSend(e1); !errors.Is(err, ErrChanNotConnect) {
		t.Errorf("open unconnected = %v", err)
	}
	if err := PktConnect(e1, e2); err != nil {
		t.Fatal(err)
	}
	if err := PktConnect(e1, e2); !errors.Is(err, ErrChanConnected) {
		t.Errorf("double connect = %v", err)
	}
	// Wrong direction opens.
	if _, err := PktOpenRecv(e1); !errors.Is(err, ErrChanDirection) {
		t.Errorf("recv-open on send side = %v", err)
	}
	if _, err := PktOpenSend(e2); !errors.Is(err, ErrChanDirection) {
		t.Errorf("send-open on recv side = %v", err)
	}
	// Double open.
	if _, err := PktOpenSend(e1); err != nil {
		t.Fatal(err)
	}
	if _, err := PktOpenSend(e1); !errors.Is(err, ErrChanOpen) {
		t.Errorf("double open = %v", err)
	}
}

func TestPktConnectRefusesPendingMessages(t *testing.T) {
	_, e1, e2 := twoEndpoints(t)
	_ = MsgSend(e2, []byte("pending"), 0, TimeoutInfinite)
	if err := PktConnect(e1, e2); !errors.Is(err, ErrChanOpen) {
		t.Errorf("connect with queued messages = %v", err)
	}
}

func TestScalarChannelSizeMatching(t *testing.T) {
	_, e1, e2 := twoEndpoints(t)
	if err := ScalarConnect(e1, e2); err != nil {
		t.Fatal(err)
	}
	send, err := ScalarOpenSend(e1)
	if err != nil {
		t.Fatal(err)
	}
	recv, err := ScalarOpenRecv(e2)
	if err != nil {
		t.Fatal(err)
	}
	if err := send.SendUint32(0xDEADBEEF, TimeoutInfinite); err != nil {
		t.Fatal(err)
	}
	// Wrong-width receive is a type error (and consumes the scalar, per
	// MCAPI).
	if _, err := recv.RecvUint64(TimeoutInfinite); !errors.Is(err, ErrChanTypeMatch) {
		t.Errorf("mismatched recv = %v", err)
	}
	_ = send.SendUint64(42, TimeoutInfinite)
	v, err := recv.RecvUint64(TimeoutInfinite)
	if err != nil || v != 42 {
		t.Errorf("recv64 = %d, %v", v, err)
	}
	_ = send.SendUint8(7, TimeoutInfinite)
	b, err := recv.RecvUint8(TimeoutInfinite)
	if err != nil || b != 7 {
		t.Errorf("recv8 = %d, %v", b, err)
	}
	_ = send.SendUint16(65535, TimeoutInfinite)
	w, err := recv.RecvUint16(TimeoutInfinite)
	if err != nil || w != 65535 {
		t.Errorf("recv16 = %d, %v", w, err)
	}
}

func TestDeleteDisconnectsPeer(t *testing.T) {
	_, e1, e2 := twoEndpoints(t)
	_ = PktConnect(e1, e2)
	send, _ := PktOpenSend(e1)
	if err := e2.Delete(); err != nil {
		t.Fatal(err)
	}
	if err := send.Send([]byte("x"), TimeoutImmediate); err == nil {
		t.Error("send to deleted peer succeeded")
	}
}

func TestConcurrentProducersConsumers(t *testing.T) {
	sys := NewSystem()
	n, _ := sys.Initialize(1, 1)
	ep, _ := n.CreateEndpoint(1, &EndpointAttributes{QueueDepth: 8})
	const producers, perProducer = 4, 100
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if err := MsgSend(ep, []byte(fmt.Sprintf("%d:%d", p, i)), 0, TimeoutInfinite); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(p)
	}
	got := make(map[string]bool)
	var mu sync.Mutex
	var rg sync.WaitGroup
	for c := 0; c < 2; c++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				data, _, err := MsgRecv(ep, Timeout(200*time.Millisecond))
				if err != nil {
					return
				}
				mu.Lock()
				got[string(data)] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	rg.Wait()
	if len(got) != producers*perProducer {
		t.Errorf("received %d unique messages, want %d", len(got), producers*perProducer)
	}
}

func TestRequestSendRecv(t *testing.T) {
	_, _, e2 := twoEndpoints(t)
	recvReq := MsgRecvI(e2)
	if done, _ := recvReq.Test(); done {
		t.Error("recv request done before any send")
	}
	sendReq := MsgSendI(e2, []byte("async"), 2)
	if err := sendReq.Wait(TimeoutInfinite); err != nil {
		t.Fatal(err)
	}
	if err := recvReq.Wait(Timeout(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	data, prio, err := recvReq.Payload()
	if err != nil || string(data) != "async" || prio != 2 {
		t.Errorf("payload = %q, %d, %v", data, prio, err)
	}
	// Completed requests cannot be canceled.
	if err := recvReq.Cancel(); !errors.Is(err, ErrRequestInvalid) {
		t.Errorf("cancel done request = %v", err)
	}
}

func TestRequestCancel(t *testing.T) {
	_, _, e2 := twoEndpoints(t)
	req := MsgRecvI(e2)
	if err := req.Cancel(); err != nil {
		t.Fatal(err)
	}
	if err := req.Wait(TimeoutInfinite); !errors.Is(err, ErrRequestCanceled) {
		t.Errorf("wait on canceled = %v", err)
	}
	if _, _, err := req.Payload(); !errors.Is(err, ErrRequestCanceled) {
		t.Errorf("payload of canceled = %v", err)
	}
}

func TestRequestWaitTimeout(t *testing.T) {
	_, _, e2 := twoEndpoints(t)
	req := MsgRecvI(e2)
	if err := req.Wait(Timeout(10 * time.Millisecond)); !errors.Is(err, ErrTimeout) {
		t.Errorf("wait = %v, want ErrTimeout", err)
	}
	_ = req.Cancel()
}

func TestStatusStrings(t *testing.T) {
	if ErrChanDirection.Error() != "MCAPI_ERR_CHAN_DIRECTION" {
		t.Error("status name wrong")
	}
	if Status(999).Error() != "MCAPI_STATUS_UNKNOWN" {
		t.Error("unknown status name wrong")
	}
}

func TestWaitAny(t *testing.T) {
	_, _, e2 := twoEndpoints(t)
	slow := MsgRecvI(e2) // completes only when a message arrives
	fast := MsgSendI(e2, []byte("x"), 0)
	idx, err := WaitAny([]*Request{slow, fast}, Timeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	// Either could win (the send completes the recv too), but SOME index
	// must come back and that request must be done.
	if done, _ := []*Request{slow, fast}[idx].Test(); !done {
		t.Errorf("WaitAny returned index %d of an unfinished request", idx)
	}
	if err := slow.Wait(Timeout(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
}

func TestWaitAnyTimeout(t *testing.T) {
	_, _, e2 := twoEndpoints(t)
	pending := MsgRecvI(e2)
	defer pending.Cancel()
	if _, err := WaitAny([]*Request{pending}, Timeout(10*time.Millisecond)); !errors.Is(err, ErrTimeout) {
		t.Errorf("WaitAny = %v, want ErrTimeout", err)
	}
	if _, err := WaitAny(nil, TimeoutImmediate); !errors.Is(err, ErrRequestInvalid) {
		t.Errorf("empty WaitAny = %v, want ErrRequestInvalid", err)
	}
}

// TestWaitAnyTimeoutLeavesNoGoroutine polls a request that never
// completes: a WaitAny that times out must leave the goroutine count
// where it was, however often it is called.
func TestWaitAnyTimeoutLeavesNoGoroutine(t *testing.T) {
	_, _, e2 := twoEndpoints(t)
	pending := MsgRecvI(e2)
	defer pending.Cancel()
	other := MsgRecvI(e2)
	defer other.Cancel()
	base := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		if _, err := WaitAny([]*Request{pending, other}, Timeout(time.Millisecond)); !errors.Is(err, ErrTimeout) {
			t.Fatalf("WaitAny = %v, want ErrTimeout", err)
		}
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("50 timed-out waits on two requests left %d goroutines, %d before", n, base)
	}
}

func TestWaitAnyFastPath(t *testing.T) {
	_, _, e2 := twoEndpoints(t)
	done := MsgSendI(e2, []byte("y"), 0)
	if err := done.Wait(TimeoutInfinite); err != nil {
		t.Fatal(err)
	}
	idx, err := WaitAny([]*Request{done}, TimeoutImmediate)
	if err != nil || idx != 0 {
		t.Errorf("fast path = %d, %v", idx, err)
	}
}

func TestEndpointAttributes(t *testing.T) {
	_, e1, e2 := twoEndpoints(t)
	if got, err := e2.Attribute(AttrQueueDepth); err != nil || got != DefaultQueueDepth {
		t.Errorf("queue depth = %d, %v", got, err)
	}
	_ = MsgSend(e2, []byte("x"), 0, TimeoutInfinite)
	if got, _ := e2.Attribute(AttrQueued); got != 1 {
		t.Errorf("queued = %d, want 1", got)
	}
	if got, _ := e1.Attribute(AttrConnected); got != 0 {
		t.Errorf("connected = %d, want 0", got)
	}
	// Drain before connecting (pending traffic blocks connects).
	_, _, _ = MsgRecv(e2, TimeoutImmediate)
	if err := PktConnect(e1, e2); err != nil {
		t.Fatal(err)
	}
	if got, _ := e1.Attribute(AttrConnected); got != 1 {
		t.Errorf("connected after PktConnect = %d, want 1", got)
	}
	if _, err := e1.Attribute(EndpointAttribute(99)); !errors.Is(err, ErrParameterInvalid) {
		t.Errorf("unknown attribute = %v", err)
	}
	_ = e1.Delete()
	if _, err := e1.Attribute(AttrQueued); !errors.Is(err, ErrEndpInvalid) {
		t.Errorf("attribute of deleted = %v", err)
	}
}

func TestGetEndpointWait(t *testing.T) {
	sys := NewSystem()
	n, _ := sys.Initialize(1, 1)
	// Immediate: not there yet.
	if _, err := sys.GetEndpointWait(1, 1, 9, TimeoutImmediate); !errors.Is(err, ErrTimeout) {
		t.Errorf("immediate wait = %v", err)
	}
	// The endpoint appears while a getter waits.
	got := make(chan error, 1)
	go func() {
		_, err := sys.GetEndpointWait(1, 1, 9, Timeout(2*time.Second))
		got <- err
	}()
	time.Sleep(3 * time.Millisecond)
	if _, err := n.CreateEndpoint(9, nil); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("waiting get: %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("GetEndpointWait never resolved")
	}
	// Bounded wait on a never-created endpoint times out.
	if _, err := sys.GetEndpointWait(1, 1, 99, Timeout(5*time.Millisecond)); !errors.Is(err, ErrTimeout) {
		t.Errorf("bounded wait = %v", err)
	}
}
