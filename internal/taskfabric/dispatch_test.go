package taskfabric

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// roundTripAllocsMax is what one SubmitJob + Wait of a small echo task
// allocates, host and domain side together: the task (its handle
// inside) and its argument copy, the Wait's channel, the MCAPI send and
// parked receive, the domain's MTAPI task and the job's result: 15
// measured on one domain, which gets no load map and, pinged hourly,
// no heartbeat.
const roundTripAllocsMax = 15

// TestSubmitWaitAllocs pins one fabric round trip in heap objects.
func TestSubmitWaitAllocs(t *testing.T) {
	f, err := NewFabric(testRegistry(t), WithDomains(1), WithHeartbeat(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	arg := []byte("hello")
	roundTrip := func() {
		h, err := f.SubmitJob("echo", arg)
		if err != nil {
			t.Fatal(err)
		}
		if res, err := h.Wait(TimeoutInfinite); err != nil || string(res) != "hello" {
			t.Fatalf("echo = %q, %v", res, err)
		}
	}
	for i := 0; i < 50; i++ { // warm pools, maps and the pump's scratch
		roundTrip()
	}
	allocs := testing.AllocsPerRun(400, roundTrip)
	t.Logf("%.1f objects per SubmitJob + Wait", allocs)
	if raceEnabled {
		return
	}
	if allocs > roundTripAllocsMax {
		t.Errorf("a SubmitJob + Wait round trip allocates %.1f objects, want <= %d", allocs, roundTripAllocsMax)
	}
}

// TestSettleOnceUnderRaces races submits, results, domain kills and
// readmissions, group cancels and Close: every task settles exactly
// once (a completion runs once, a group delivers a member once) and
// every Wait returns. Run it under -race.
func TestSettleOnceUnderRaces(t *testing.T) {
	f, err := NewFabric(testRegistry(t),
		WithDomains(3),
		WithHeartbeat(2*time.Millisecond),
		WithTaskDeadline(40*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}

	type submitted struct {
		h         *TaskHandle
		v         uint64
		completes *atomic.Int32 // nil for a group member
	}
	var (
		mu     sync.Mutex
		all    []submitted
		groups []*Group
	)
	stop := make(chan struct{})
	var bg sync.WaitGroup
	for k := 0; k < 3; k++ {
		bg.Add(1)
		go func() { // submits until the fabric closes
			defer bg.Done()
			var g *Group
			for i := 0; ; i++ {
				v := uint64(k<<32 | i)
				arg := sleepSumArg(uint32(i%3), v)
				var s submitted
				var err error
				if i%2 == 0 {
					s.completes = new(atomic.Int32)
					n := s.completes
					s.h, err = f.SubmitJobObserved("sleepsum", arg, nil, func([]byte, error) { n.Add(1) })
				} else {
					if i%16 == 1 {
						g = f.NewGroup()
						mu.Lock()
						groups = append(groups, g)
						mu.Unlock()
					}
					s.h, err = g.SubmitJob("sleepsum", arg)
				}
				if errors.Is(err, ErrClosed) {
					return
				}
				if err != nil {
					t.Error(err)
					return
				}
				s.v = v
				mu.Lock()
				all = append(all, s)
				mu.Unlock()
			}
		}()
	}
	bg.Add(2)
	go func() { // kills a domain, then readmits it once its loss is noticed
		defer bg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(15 * time.Millisecond):
			}
			_ = f.KillDomain(i % 3)
			for {
				err := f.ReadmitDomain(i % 3)
				if err == nil || errors.Is(err, ErrClosed) {
					break
				}
				time.Sleep(time.Millisecond)
			}
		}
	}()
	go func() { // cancels every third group
		defer bg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(3 * time.Millisecond):
			}
			mu.Lock()
			var g *Group
			if i < len(groups) && i%3 == 0 {
				g = groups[i]
			}
			mu.Unlock()
			if g != nil {
				g.Cancel()
			}
		}
	}()

	time.Sleep(300 * time.Millisecond)
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	close(stop)
	bg.Wait()

	if len(all) == 0 {
		t.Fatal("no task was submitted")
	}
	for _, s := range all {
		res, err := s.h.Wait(5 * time.Second)
		switch {
		case errors.Is(err, ErrTimeout):
			t.Fatalf("task %d never settled", s.h.ID())
		case err == nil || errors.Is(err, ErrDomainLost):
			if got := decodeU64(t, res); got != s.v {
				t.Errorf("task %d = %d, want %d", s.h.ID(), got, s.v)
			}
		case !errors.Is(err, ErrClosed) && !errors.Is(err, ErrCanceled):
			t.Errorf("task %d: %v", s.h.ID(), err)
		}
		if s.completes != nil {
			if n := s.completes.Load(); n != 1 {
				t.Errorf("task %d completed %d times, want once", s.h.ID(), n)
			}
		}
	}
	for _, g := range groups {
		if err := g.WaitAll(5 * time.Second); errors.Is(err, ErrTimeout) {
			t.Fatalf("group %d never settled", g.id)
		}
		seen := make(map[*TaskHandle]bool)
		for {
			h, err := g.WaitAny(0)
			if err == ErrGroupDrained {
				break
			}
			if err != nil {
				t.Fatalf("group %d WaitAny: %v", g.id, err)
			}
			if seen[h] {
				t.Errorf("group %d delivered task %d twice", g.id, h.ID())
			}
			seen[h] = true
		}
		if len(seen) != len(g.all) {
			t.Errorf("group %d delivered %d of its %d members", g.id, len(seen), len(g.all))
		}
	}
	t.Logf("%d tasks in %d groups or alone; %+v", len(all), len(groups), f.Stats())
}
