package mcapi

import (
	"runtime"
	"testing"
	"time"
)

// newPair returns a system with two endpoints on separate nodes.
func newPair(t *testing.T, attrs *EndpointAttributes) (*Endpoint, *Endpoint) {
	t.Helper()
	sys := NewSystem()
	na, err := sys.Initialize(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := sys.Initialize(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	a, err := na.CreateEndpoint(1, attrs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := nb.CreateEndpoint(1, attrs)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

func TestMsgRecvIWaitTimeout(t *testing.T) {
	_, b := newPair(t, nil)
	start := time.Now()
	r := MsgRecvI(b)
	if err := r.Wait(Timeout(30 * time.Millisecond)); err != ErrTimeout {
		t.Fatalf("Wait = %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Errorf("Wait timed out after %v, want >= ~30ms", elapsed)
	}
	// A timed-out wait leaves the request pending: a later send completes it.
	if done, err := r.Test(); done {
		t.Fatalf("Test = %v, %v after a Wait timeout, want pending", done, err)
	}
	if err := MsgSend(b, []byte("late"), 1, TimeoutInfinite); err != nil {
		t.Fatal(err)
	}
	if err := r.Wait(Timeout(2 * time.Second)); err != nil {
		t.Fatalf("Wait after send = %v", err)
	}
	if data, prio, err := r.Payload(); err != nil || string(data) != "late" || prio != 1 {
		t.Fatalf("Payload = %q, %d, %v", data, prio, err)
	}
}

func TestMsgRecvIDelivery(t *testing.T) {
	_, b := newPair(t, nil)
	r := MsgRecvI(b)
	time.Sleep(5 * time.Millisecond)
	if err := MsgSend(b, []byte("ping"), 2, TimeoutInfinite); err != nil {
		t.Fatal(err)
	}
	if err := r.Wait(Timeout(2 * time.Second)); err != nil {
		t.Fatalf("Wait = %v", err)
	}
	data, prio, err := r.Payload()
	if err != nil || string(data) != "ping" || prio != 2 {
		t.Fatalf("Payload = %q, %d, %v", data, prio, err)
	}
}

func TestMsgRecvICancelThenLateMessage(t *testing.T) {
	_, b := newPair(t, nil)
	r := MsgRecvI(b)
	if err := r.Cancel(); err != nil {
		t.Fatal(err)
	}
	if err := r.Wait(TimeoutInfinite); err != ErrRequestCanceled {
		t.Fatalf("Wait after Cancel = %v, want ErrRequestCanceled", err)
	}
	// The canceled request is off the endpoint: a later message is still
	// receivable by a plain blocking receive.
	if err := MsgSend(b, []byte("late"), 0, TimeoutInfinite); err != nil {
		t.Fatal(err)
	}
	data, _, err := MsgRecv(b, Timeout(time.Second))
	if err != nil || string(data) != "late" {
		t.Fatalf("MsgRecv after canceled request = %q, %v", data, err)
	}
}

func TestPktRecvIDeadlineAndDelivery(t *testing.T) {
	send, recv := pktPair(t)

	// Wait timeout: nothing queued, the request stays pending.
	r := recv.RecvI()
	if err := r.Wait(Timeout(20 * time.Millisecond)); err != ErrTimeout {
		t.Fatalf("RecvI: Wait = %v, want ErrTimeout", err)
	}

	// Delivery: the packet completes the same request.
	if err := send.Send([]byte{7, 7}, TimeoutInfinite); err != nil {
		t.Fatal(err)
	}
	if err := r.Wait(Timeout(2 * time.Second)); err != nil {
		t.Fatalf("RecvI delivery: Wait = %v", err)
	}
	data, _, err := r.Payload()
	if err != nil || len(data) != 2 || data[0] != 7 {
		t.Fatalf("RecvI Payload = %v, %v", data, err)
	}

	// Cancel: a pending receive aborts immediately.
	r = recv.RecvI()
	if err := r.Cancel(); err != nil {
		t.Fatal(err)
	}
	if err := r.Wait(TimeoutInfinite); err != ErrRequestCanceled {
		t.Fatalf("RecvI Cancel: Wait = %v, want ErrRequestCanceled", err)
	}
}

func TestMsgRecvIImmediate(t *testing.T) {
	_, b := newPair(t, nil)
	if err := MsgSend(b, []byte("x"), 3, TimeoutInfinite); err != nil {
		t.Fatal(err)
	}
	if err := MsgSend(b, []byte("y"), 0, TimeoutInfinite); err != nil {
		t.Fatal(err)
	}
	// A request on a non-empty queue is done before anyone waits, with the
	// highest-priority message.
	r := MsgRecvI(b)
	if done, err := r.Test(); !done || err != nil {
		t.Fatalf("Test = %v, %v on a non-empty queue, want done", done, err)
	}
	if data, prio, err := r.Payload(); err != nil || string(data) != "y" || prio != 0 {
		t.Fatalf("Payload = %q, %d, %v", data, prio, err)
	}
}

// TestRecvRequestNeverLosesPacket races a receive request against a
// concurrent send, then cancels it: a won Cancel must leave the packet
// queued, a lost one must leave it in the request.
func TestRecvRequestNeverLosesPacket(t *testing.T) {
	// rig is one receive path: its request, a send into it, and a
	// blocking receive from it.
	type rig struct {
		recvI func() *Request
		send  func([]byte) error
		recv  func(Timeout) ([]byte, error)
	}
	const rounds = 2000
	for _, tc := range []struct {
		name string
		rig  func(t *testing.T) rig
	}{
		{"RecvI", func(t *testing.T) rig {
			send, recv := pktPair(t)
			return rig{recv.RecvI, func(p []byte) error { return send.Send(p, TimeoutInfinite) }, recv.Recv}
		}},
		{"MsgRecvI", func(t *testing.T) rig {
			_, b := newPair(t, nil)
			return rig{
				func() *Request { return MsgRecvI(b) },
				func(p []byte) error { return MsgSend(b, p, 0, TimeoutInfinite) },
				func(to Timeout) ([]byte, error) {
					data, _, err := MsgRecv(b, to)
					return data, err
				},
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rg := tc.rig(t)
			sent := make(chan error, 1)
			lost, won := 0, 0
			for i := 0; i < rounds; i++ {
				want := byte(i)
				r := rg.recvI()
				runtime.Gosched() // let anything serving the request block
				go func() { sent <- rg.send([]byte{want}) }()
				for j := 0; j < i%3; j++ {
					runtime.Gosched() // vary how far the send gets before Cancel
				}
				cerr := r.Cancel()
				if err := <-sent; err != nil {
					t.Fatalf("round %d: send: %v", i, err)
				}
				var data []byte
				var err error
				switch cerr {
				case nil:
					won++
					data, err = rg.recv(TimeoutImmediate) // the send returned: queued by now
				case ErrRequestInvalid:
					data, _, err = r.Payload()
				default:
					t.Fatalf("round %d: Cancel = %v", i, cerr)
				}
				if err == ErrTimeout {
					lost++
					continue
				}
				if err != nil || len(data) != 1 || data[0] != want {
					t.Fatalf("round %d: got %v, %v; want [%d]", i, data, err, want)
				}
			}
			t.Logf("%d of %d cancels won", won, rounds)
			if lost > 0 {
				t.Errorf("%d of %d won cancels lost their packet", lost, won)
			}
		})
	}
}

// TestParkedRecvHoldsNoGoroutine checks that a pending receive request is
// a waiter on its endpoint, not a goroutine, and that every teardown
// settles a parked request at once.
func TestParkedRecvHoldsNoGoroutine(t *testing.T) {
	settled := func(t *testing.T, what string, r *Request, want error) {
		t.Helper()
		if err := r.Wait(Timeout(time.Second)); err != want {
			t.Errorf("%s: Wait = %v, want %v", what, err, want)
		}
	}

	_, b := newPair(t, nil)
	before := runtime.NumGoroutine()
	reqs := make([]*Request, 64)
	for i := range reqs {
		reqs[i] = MsgRecvI(b)
	}
	if n := runtime.NumGoroutine(); n != before {
		t.Errorf("64 parked requests: goroutines %d -> %d, want unchanged", before, n)
	}
	for _, r := range reqs {
		if err := r.Cancel(); err != nil {
			t.Fatal(err)
		}
	}

	send, recv := pktPair(t)
	r := recv.RecvI()
	if err := recv.Close(); err != nil {
		t.Fatal(err)
	}
	settled(t, "Close", r, ErrChanNotOpen)
	if err := send.Close(); err != nil {
		t.Fatal(err)
	}

	_, recv = pktPair(t)
	r = recv.RecvI()
	if err := recv.ep.Delete(); err != nil {
		t.Fatal(err)
	}
	settled(t, "Delete", r, ErrEndpInvalid)

	send, recv = pktPair(t)
	r = recv.RecvI()
	if err := send.ep.Delete(); err != nil {
		t.Fatal(err)
	}
	settled(t, "peer Delete", r, ErrChanNotOpen)

	a, b := newPair(t, nil)
	r = MsgRecvI(b)
	if err := b.Node().Finalize(); err != nil {
		t.Fatal(err)
	}
	settled(t, "Finalize", r, ErrEndpInvalid)

	a, b = newPair(t, nil)
	ra, rb := MsgRecvI(a), MsgRecvI(b)
	if err := PktConnect(a, b); err != nil {
		t.Fatal(err)
	}
	settled(t, "PktConnect send side", ra, ErrChanConnected)
	settled(t, "PktConnect recv side", rb, ErrChanConnected)
}
