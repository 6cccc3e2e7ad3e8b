package core

import (
	"sync"
	"sync/atomic"
	"testing"
)

// taskIDs builds tasks that identify themselves when run: deques hold
// tasks by value, so identity is what a task's body records.
type taskIDs struct{ last int }

func (ids *taskIDs) mk(id int) task { return task{fn: func() { ids.last = id }} }

// of runs a popped or stolen task and returns its id, -1 when none came.
func (ids *taskIDs) of(tk task, ok bool) int {
	if !ok {
		return -1
	}
	tk.fn()
	return ids.last
}

func TestDequeLIFOPopFIFOSteal(t *testing.T) {
	var ids taskIDs
	d := newTaskDeque(8)
	for i := 0; i < 4; i++ {
		if !d.pushTail(ids.mk(i)) {
			t.Fatalf("push %d refused", i)
		}
	}
	// Owner pops newest first.
	if got := ids.of(d.popTail()); got != 3 {
		t.Errorf("popTail returned task %d, want the newest (3)", got)
	}
	// Thief steals oldest first.
	if got := ids.of(d.stealHead()); got != 0 {
		t.Errorf("stealHead returned task %d, want the oldest (0)", got)
	}
	if got := ids.of(d.stealHead()); got != 1 {
		t.Errorf("second steal returned task %d, want 1", got)
	}
	if got := ids.of(d.popTail()); got != 2 {
		t.Errorf("final popTail returned task %d, want 2", got)
	}
	if ids.of(d.popTail()) != -1 || ids.of(d.stealHead()) != -1 || d.size() != 0 {
		t.Error("deque not empty after draining")
	}
}

func TestDequeBoundedRefusesWhenFull(t *testing.T) {
	var ids taskIDs
	d := newTaskDeque(2)
	if !d.pushTail(ids.mk(0)) || !d.pushTail(ids.mk(1)) {
		t.Fatal("pushes within capacity refused")
	}
	if d.pushTail(ids.mk(2)) {
		t.Error("push beyond capacity accepted")
	}
	// Freeing a slot re-enables pushes, and wraparound keeps order.
	if ids.of(d.stealHead()) != 0 {
		t.Fatal("steal order")
	}
	if !d.pushTail(ids.mk(2)) {
		t.Error("push after pop refused")
	}
	if ids.of(d.popTail()) != 2 || ids.of(d.popTail()) != 1 {
		t.Error("wraparound order wrong")
	}
}

func TestDequeGrowsLazilyPreservingOrder(t *testing.T) {
	// Push past the initial ring size with a wrapped window: growth must
	// unwrap head..tail without reordering or dropping anything.
	var ids taskIDs
	d := newTaskDeque(dequeCapacity)
	for i := 0; i < dequeInitialSize/2; i++ {
		if !d.pushTail(ids.mk(-2)) || ids.of(d.stealHead()) != -2 {
			t.Fatal("warmup push/steal failed")
		}
	}
	const n = dequeInitialSize * 3
	for i := 0; i < n; i++ { // head is now mid-ring; this forces repeated grows
		if !d.pushTail(ids.mk(i)) {
			t.Fatalf("push %d refused below capacity", i)
		}
	}
	for i := 0; i < n; i++ {
		if got := ids.of(d.stealHead()); got != i {
			t.Fatalf("steal %d returned task %d after growth", i, got)
		}
	}
	if d.size() != 0 {
		t.Error("deque not empty")
	}
}

func TestDequeConcurrentPushPopSteal(t *testing.T) {
	// One owner pushing and popping its tail, several thieves hammering
	// the head: every task must run exactly once, whoever claims it.
	// Meaningful mostly under -race (the CI race target runs it).
	const n = 2000
	d := newTaskDeque(64)
	var ran atomic.Int64
	var wg sync.WaitGroup
	done := make(chan struct{})
	for thief := 0; thief < 3; thief++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if tk, ok := d.stealHead(); ok {
					tk.fn()
					continue
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		tk := task{fn: func() { ran.Add(1) }}
		for !d.pushTail(tk) {
			// Full: run one of our own to make room.
			if mine, ok := d.popTail(); ok {
				mine.fn()
			}
		}
	}
	// Drain whatever the thieves have not taken.
	for ran.Load() < n {
		if tk, ok := d.popTail(); ok {
			tk.fn()
		}
	}
	close(done)
	wg.Wait()
	if ran.Load() != n || d.size() != 0 {
		t.Fatalf("tasks ran = %d (deque size %d), want %d and empty", ran.Load(), d.size(), n)
	}
}
