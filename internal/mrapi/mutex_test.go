package mrapi

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// twoNodes returns two initialized nodes in the same domain of a fresh
// system.
func twoNodes(t *testing.T) (*Node, *Node) {
	t.Helper()
	sys := NewSystem(nil)
	a, err := sys.Initialize(1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sys.Initialize(1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

func TestMutexCreateGetDelete(t *testing.T) {
	a, b := twoNodes(t)
	m, err := a.MutexCreate(10, nil)
	if err != nil {
		t.Fatalf("MutexCreate: %v", err)
	}
	if m.Key() != 10 {
		t.Errorf("Key = %d", m.Key())
	}
	if _, err := a.MutexCreate(10, nil); !errors.Is(err, ErrMutexExists) {
		t.Errorf("duplicate create = %v, want ErrMutexExists", err)
	}
	got, err := b.MutexGet(10)
	if err != nil || got != m {
		t.Errorf("MutexGet from other node = %v, %v", got, err)
	}
	if err := m.Delete(a); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := b.MutexGet(10); !errors.Is(err, ErrMutexInvalid) {
		t.Errorf("get after delete = %v, want ErrMutexInvalid", err)
	}
	// Key is reusable after deletion.
	if _, err := b.MutexCreate(10, nil); err != nil {
		t.Errorf("recreate after delete: %v", err)
	}
}

func TestMutexLockUnlock(t *testing.T) {
	a, _ := twoNodes(t)
	m, _ := a.MutexCreate(1, nil)
	k, err := m.Lock(a, TimeoutInfinite)
	if err != nil {
		t.Fatalf("Lock: %v", err)
	}
	if !m.Held() {
		t.Error("mutex should be held")
	}
	if err := m.Unlock(a, k); err != nil {
		t.Fatalf("Unlock: %v", err)
	}
	if m.Held() {
		t.Error("mutex should be free")
	}
}

func TestMutexMutualExclusion(t *testing.T) {
	a, b := twoNodes(t)
	m, _ := a.MutexCreate(1, nil)
	const iters = 2000
	counter := 0
	var wg sync.WaitGroup
	for _, n := range []*Node{a, b} {
		wg.Add(1)
		go func(n *Node) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k, err := m.Lock(n, TimeoutInfinite)
				if err != nil {
					t.Errorf("Lock: %v", err)
					return
				}
				counter++
				if err := m.Unlock(n, k); err != nil {
					t.Errorf("Unlock: %v", err)
					return
				}
			}
		}(n)
	}
	wg.Wait()
	if counter != 2*iters {
		t.Errorf("counter = %d, want %d (lost updates)", counter, 2*iters)
	}
}

func TestMutexSelfDeadlockDetection(t *testing.T) {
	a, _ := twoNodes(t)
	m, _ := a.MutexCreate(1, nil)
	k, _ := m.Lock(a, TimeoutInfinite)
	if _, err := m.Lock(a, TimeoutInfinite); !errors.Is(err, ErrMutexLocked) {
		t.Errorf("self relock = %v, want ErrMutexLocked", err)
	}
	if err := m.Unlock(a, k); err != nil {
		t.Fatal(err)
	}
}

func TestMutexRecursive(t *testing.T) {
	a, _ := twoNodes(t)
	m, _ := a.MutexCreate(1, &MutexAttributes{Recursive: true})
	k0, err := m.Lock(a, TimeoutInfinite)
	if err != nil {
		t.Fatal(err)
	}
	k1, err := m.Lock(a, TimeoutInfinite)
	if err != nil {
		t.Fatalf("recursive relock: %v", err)
	}
	k2, err := m.Lock(a, TimeoutInfinite)
	if err != nil {
		t.Fatal(err)
	}
	if k0 == k1 || k1 == k2 {
		t.Errorf("lock keys should differ: %d %d %d", k0, k1, k2)
	}
	// Out-of-order unlock is rejected.
	if err := m.Unlock(a, k0); !errors.Is(err, ErrMutexLockOrder) {
		t.Errorf("out-of-order unlock = %v, want ErrMutexLockOrder", err)
	}
	for _, k := range []LockKey{k2, k1, k0} {
		if err := m.Unlock(a, k); err != nil {
			t.Fatalf("Unlock(%d): %v", k, err)
		}
	}
	if m.Held() {
		t.Error("mutex should be free after full unwind")
	}
}

func TestMutexUnlockErrors(t *testing.T) {
	a, b := twoNodes(t)
	m, _ := a.MutexCreate(1, nil)
	if err := m.Unlock(a, 0); !errors.Is(err, ErrMutexNotLocked) {
		t.Errorf("unlock unheld = %v, want ErrMutexNotLocked", err)
	}
	k, _ := m.Lock(a, TimeoutInfinite)
	if err := m.Unlock(b, k); !errors.Is(err, ErrMutexKey) {
		t.Errorf("unlock by non-owner = %v, want ErrMutexKey", err)
	}
	if err := m.Unlock(a, k); err != nil {
		t.Fatal(err)
	}
}

func TestMutexTimeout(t *testing.T) {
	a, b := twoNodes(t)
	m, _ := a.MutexCreate(1, nil)
	k, _ := m.Lock(a, TimeoutInfinite)

	if _, err := m.Lock(b, TimeoutImmediate); !errors.Is(err, ErrTimeout) {
		t.Errorf("immediate lock on held mutex = %v, want ErrTimeout", err)
	}
	start := time.Now()
	if _, err := m.Lock(b, Timeout(20*time.Millisecond)); !errors.Is(err, ErrTimeout) {
		t.Errorf("timed lock = %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed < 15*time.Millisecond {
		t.Errorf("timed lock returned too early: %v", elapsed)
	}
	if err := m.Unlock(a, k); err != nil {
		t.Fatal(err)
	}
	// After release a timed lock succeeds.
	if _, err := m.Lock(b, Timeout(time.Second)); err != nil {
		t.Errorf("lock after release: %v", err)
	}
}

func TestMutexHandoffAfterUnlock(t *testing.T) {
	a, b := twoNodes(t)
	m, _ := a.MutexCreate(1, nil)
	k, _ := m.Lock(a, TimeoutInfinite)
	acquired := make(chan error, 1)
	go func() {
		_, err := m.Lock(b, TimeoutInfinite)
		acquired <- err
	}()
	time.Sleep(5 * time.Millisecond) // let b park
	if err := m.Unlock(a, k); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-acquired:
		if err != nil {
			t.Fatalf("waiter lock: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter never acquired the mutex")
	}
}

func TestMutexDeleteWakesWaiters(t *testing.T) {
	a, b := twoNodes(t)
	m, _ := a.MutexCreate(1, nil)
	if _, err := m.Lock(a, TimeoutInfinite); err != nil {
		t.Fatal(err)
	}
	woke := make(chan error, 1)
	go func() {
		_, err := m.Lock(b, TimeoutInfinite)
		woke <- err
	}()
	time.Sleep(5 * time.Millisecond)
	if err := m.Delete(a); err != nil {
		t.Fatalf("Delete by owner: %v", err)
	}
	select {
	case err := <-woke:
		if !errors.Is(err, ErrMutexDeleted) {
			t.Errorf("waiter error = %v, want ErrMutexDeleted", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter not woken by delete")
	}
}

func TestMutexDeleteHeldByOtherNodeFails(t *testing.T) {
	a, b := twoNodes(t)
	m, _ := a.MutexCreate(1, nil)
	k, _ := m.Lock(a, TimeoutInfinite)
	if err := m.Delete(b); !errors.Is(err, ErrMutexLocked) {
		t.Errorf("delete of mutex held elsewhere = %v, want ErrMutexLocked", err)
	}
	if err := m.Unlock(a, k); err != nil {
		t.Fatal(err)
	}
}

func TestMutexLockCountsStat(t *testing.T) {
	a, _ := twoNodes(t)
	m, _ := a.MutexCreate(1, nil)
	before := a.LocksTaken()
	k, _ := m.Lock(a, TimeoutInfinite)
	_ = m.Unlock(a, k)
	if a.LocksTaken() != before+1 {
		t.Errorf("LocksTaken = %d, want %d", a.LocksTaken(), before+1)
	}
}

// TestMutexFastSlowMix runs nodes that mix every acquisition mode against
// one plain and one recursive mutex, so CAS fast-path owners hand off to
// slow-path waiters and back: infinite, timed and immediate locks, a
// same-node relock (ErrMutexLocked while held), and recursive keys. It
// ends by deleting the plain mutex under parked waiters.
func TestMutexFastSlowMix(t *testing.T) {
	sys := NewSystem(nil)
	const nodes, iters = 4, 400
	ns := make([]*Node, nodes)
	for i := range ns {
		n, err := sys.Initialize(1, NodeID(i+1), nil)
		if err != nil {
			t.Fatal(err)
		}
		ns[i] = n
	}
	plain, _ := ns[0].MutexCreate(1, nil)
	rec, _ := ns[0].MutexCreate(2, &MutexAttributes{Recursive: true})

	var counter, recCounter int // guarded by plain and rec
	wins := make([]int, nodes)
	recWins := make([]int, nodes)
	var wg sync.WaitGroup
	for i, n := range ns {
		wg.Add(1)
		go func(i int, n *Node) {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				timeout := []Timeout{TimeoutInfinite, Timeout(time.Second), TimeoutImmediate}[(i+j)%3]
				k, err := plain.Lock(n, timeout)
				switch {
				case errors.Is(err, ErrTimeout) && timeout != TimeoutInfinite:
					// lost the race for a bounded lock: nothing to undo
				case err != nil:
					t.Errorf("node %d: Lock(%v): %v", i, timeout, err)
					return
				default:
					if j%7 == 0 {
						if _, err := plain.Lock(n, TimeoutImmediate); !errors.Is(err, ErrMutexLocked) {
							t.Errorf("node %d: same-node relock = %v, want ErrMutexLocked", i, err)
						}
					}
					v := counter
					if j%16 == 0 {
						runtime.Gosched() // widen the window a broken lock would lose an update in
					}
					counter = v + 1
					wins[i]++
					if err := plain.Unlock(n, k); err != nil {
						t.Errorf("node %d: Unlock: %v", i, err)
						return
					}
				}

				k0, err := rec.Lock(n, TimeoutInfinite)
				if err != nil {
					t.Errorf("node %d: recursive Lock: %v", i, err)
					return
				}
				k1, err := rec.Lock(n, TimeoutImmediate)
				if err != nil {
					t.Errorf("node %d: recursive relock: %v", i, err)
					return
				}
				if err := rec.Unlock(n, k0); !errors.Is(err, ErrMutexLockOrder) {
					t.Errorf("node %d: out-of-order unlock = %v, want ErrMutexLockOrder", i, err)
				}
				recCounter++
				recWins[i]++
				if err := rec.Unlock(n, k1); err != nil {
					t.Errorf("node %d: recursive Unlock(k1): %v", i, err)
				}
				if err := rec.Unlock(n, k0); err != nil {
					t.Errorf("node %d: recursive Unlock(k0): %v", i, err)
				}
			}
		}(i, n)
	}
	wg.Wait()
	total, recTotal := 0, 0
	for i := range wins {
		total += wins[i]
		recTotal += recWins[i]
	}
	if total == 0 || counter != total {
		t.Errorf("plain counter = %d, want %d acquisitions (lost updates)", counter, total)
	}
	if recCounter != recTotal || recTotal != nodes*iters {
		t.Errorf("recursive counter = %d over %d acquisitions, want %d", recCounter, recTotal, nodes*iters)
	}
	if plain.Held() || rec.Held() {
		t.Error("mutexes still held after every node unwound")
	}

	// Delete while waiters are parked: node 0 holds the plain mutex and
	// deletes it under the other nodes; every waiter wakes with
	// ErrMutexDeleted and the deleted mutex refuses the owner's unlock, a
	// fresh lock and a second delete.
	k, err := plain.Lock(ns[0], TimeoutInfinite)
	if err != nil {
		t.Fatal(err)
	}
	woke := make(chan error, nodes-1)
	for _, n := range ns[1:] {
		go func(n *Node) {
			_, err := plain.Lock(n, TimeoutInfinite)
			woke <- err
		}(n)
	}
	for {
		plain.mu.Lock()
		parked := plain.waiters.len()
		plain.mu.Unlock()
		if parked == nodes-1 {
			break
		}
		runtime.Gosched()
	}
	if err := plain.Delete(ns[0]); err != nil {
		t.Fatalf("Delete by owner: %v", err)
	}
	for range ns[1:] {
		if err := <-woke; !errors.Is(err, ErrMutexDeleted) {
			t.Errorf("parked waiter = %v, want ErrMutexDeleted", err)
		}
	}
	if err := plain.Unlock(ns[0], k); !errors.Is(err, ErrMutexDeleted) {
		t.Errorf("unlock after delete = %v, want ErrMutexDeleted", err)
	}
	if _, err := plain.Lock(ns[1], TimeoutImmediate); !errors.Is(err, ErrMutexDeleted) {
		t.Errorf("lock after delete = %v, want ErrMutexDeleted", err)
	}
	if err := plain.Delete(ns[0]); !errors.Is(err, ErrMutexInvalid) {
		t.Errorf("second delete = %v, want ErrMutexInvalid", err)
	}
}
