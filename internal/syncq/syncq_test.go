package syncq

import (
	"sync"
	"testing"
	"time"
)

func TestSignalWakesOneWaiter(t *testing.T) {
	var mu sync.Mutex
	var q WaitQueue
	got := make(chan bool, 2)
	for i := 0; i < 2; i++ {
		go func() {
			mu.Lock()
			ok := q.Wait(&mu, 0, true)
			mu.Unlock()
			got <- ok
		}()
	}
	for len(func() []chan struct{} { mu.Lock(); defer mu.Unlock(); return q.waiters }()) < 2 {
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	q.Signal()
	mu.Unlock()
	if ok := <-got; !ok {
		t.Error("signaled waiter reported timeout")
	}
	select {
	case <-got:
		t.Error("second waiter woke without a signal")
	case <-time.After(20 * time.Millisecond):
	}
	mu.Lock()
	q.Broadcast()
	mu.Unlock()
	if ok := <-got; !ok {
		t.Error("broadcast waiter reported timeout")
	}
}

func TestWaitTimesOut(t *testing.T) {
	var mu sync.Mutex
	var q WaitQueue
	start := time.Now()
	mu.Lock()
	ok := q.Wait(&mu, 15*time.Millisecond, false)
	if q.Len() != 0 {
		t.Errorf("timed-out waiter left in queue (len %d)", q.Len())
	}
	mu.Unlock()
	if ok {
		t.Error("expected timeout")
	}
	if time.Since(start) < 10*time.Millisecond {
		t.Error("returned before the timeout")
	}
}

func TestConcurrentSignalAndTimeoutLosesNoWakeups(t *testing.T) {
	// Hammer the race between Signal and a timing-out waiter: every
	// Signal must eventually wake exactly one live waiter or be passed on.
	var mu sync.Mutex
	var q WaitQueue
	const producers = 200
	woken := make(chan struct{}, producers*2)
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		go func() {
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				if q.Wait(&mu, time.Microsecond*50, false) {
					woken <- struct{}{}
				}
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < producers; i++ {
		mu.Lock()
		q.Signal()
		mu.Unlock()
		time.Sleep(time.Microsecond * 20)
	}
	// Every accounted signal either woke a waiter or found an empty queue
	// (Signal on empty queue is a no-op by design). We only require no
	// deadlock/panic and that some wakeups flowed.
	close(stop)
	if len(woken) == 0 {
		t.Error("no waiter ever woke")
	}
}

// TestTimedWaitSignalAndTimeout: a timed wait that expires returns its
// pooled waiter cleanly, and the next timed wait (reusing both pooled
// channel and timer) still observes a signal.
func TestTimedWaitSignalAndTimeout(t *testing.T) {
	var mu sync.Mutex
	var q WaitQueue

	mu.Lock()
	if q.Wait(&mu, 5*time.Millisecond, false) {
		t.Error("expected timeout")
	}
	if q.Len() != 0 {
		t.Errorf("timed-out waiter left queued (len %d)", q.Len())
	}
	mu.Unlock()

	done := make(chan bool, 1)
	go func() {
		mu.Lock()
		ok := q.Wait(&mu, time.Second, false)
		mu.Unlock()
		done <- ok
	}()
	for {
		mu.Lock()
		n := q.Len()
		mu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	q.Signal()
	mu.Unlock()
	if !<-done {
		t.Error("signaled waiter reported timeout")
	}
}

// TestPooledWaiterIsNotResignaled reuses waiters through the pool many
// times concurrently; a stale wakeup left in a recycled channel would
// surface as a Wait returning signaled with no Signal outstanding.
func TestPooledWaiterIsNotResignaled(t *testing.T) {
	var mu sync.Mutex
	var q WaitQueue
	for i := 0; i < 500; i++ {
		mu.Lock()
		q.Signal() // no waiter: must be a no-op, not a stale credit
		if q.Wait(&mu, 50*time.Microsecond, false) {
			t.Fatalf("iteration %d: woke with no signal outstanding", i)
		}
		mu.Unlock()
	}
}

func BenchmarkWaitTimeout(b *testing.B) {
	var mu sync.Mutex
	var q WaitQueue
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mu.Lock()
		q.Wait(&mu, time.Microsecond, false)
		mu.Unlock()
	}
}
