package core

import (
	"errors"
	"sync"
	"testing"
)

func TestParallelRacingCloseNeverPanics(t *testing.T) {
	// Seed regression: Close between ensure and dispatch either made
	// dispatch index a nil p.workers (panic) or send on a closed jobs
	// channel (panic). Now the fork must either run fully or fail with
	// ErrClosed — never panic, never hang a partial team on its barrier.
	for round := 0; round < 30; round++ {
		rt, err := New(WithLayer(NewNativeLayer(8)), WithNumThreads(4))
		if err != nil {
			t.Fatal(err)
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < 50; i++ {
				if err := rt.Parallel(func(c *Context) {}); err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("Parallel during close: %v, want ErrClosed", err)
					}
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			<-start
			_ = rt.Close()
		}()
		close(start)
		wg.Wait()
	}
}

func TestDispatchAllAfterCloseReturnsErrClosed(t *testing.T) {
	p := newPool(NewNativeLayer(4))
	ws := make([]*poolWorker, 2)
	if err := p.acquire(ws); err != nil {
		t.Fatal(err)
	}
	// Run the acquired workers once so close joins them idle.
	if err := p.dispatchAll(ws, []func(){func() {}, func() {}}); err != nil {
		t.Fatal(err)
	}
	p.close()
	if err := p.acquire(make([]*poolWorker, 1)); !errors.Is(err, ErrClosed) {
		t.Errorf("acquire after close = %v, want ErrClosed", err)
	}
	if err := p.dispatchAll(nil, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("dispatchAll after close = %v, want ErrClosed", err)
	}
	// Idempotent close stays safe.
	p.close()
}

func TestAcquirePrefersLowestWids(t *testing.T) {
	// Sequential same-size acquisitions must see the same workers in the
	// same order regardless of the release order of the previous region —
	// the stability ThreadPrivate's per-worker copies rely on.
	p := newPool(NewNativeLayer(8))
	defer p.close()
	ws := make([]*poolWorker, 4)
	if err := p.acquire(ws); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(len(ws))
	jobs := make([]func(), len(ws))
	for i := range ws {
		jobs[i] = wg.Done
	}
	if err := p.dispatchAll(ws, jobs); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	// Hand them back in reverse wid order, scrambling the free list.
	for i := len(ws) - 1; i >= 0; i-- {
		p.release(ws[i : i+1])
	}
	again := make([]*poolWorker, 4)
	if err := p.acquire(again); err != nil {
		t.Fatal(err)
	}
	for i, w := range again {
		if w.wid != i+1 {
			t.Errorf("reacquired worker %d has wid %d, want %d", i, w.wid, i+1)
		}
	}
	noop := []func(){func() {}, func() {}, func() {}, func() {}}
	if err := p.dispatchAll(again, noop); err != nil {
		t.Fatal(err)
	}
}
