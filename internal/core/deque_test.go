package core

import (
	"sync"
	"sync/atomic"
	"testing"
)

func mkTask(id int) (*task, *int) {
	slot := new(int)
	return &task{fn: func() { *slot = id }}, slot
}

func TestDequeLIFOPopFIFOSteal(t *testing.T) {
	d := newTaskDeque(8)
	tasks := make([]*task, 4)
	for i := range tasks {
		tasks[i], _ = mkTask(i)
		if !d.pushTail(tasks[i]) {
			t.Fatalf("push %d refused", i)
		}
	}
	// Owner pops newest first.
	if got := d.popTail(); got != tasks[3] {
		t.Error("popTail did not return the newest task")
	}
	// Thief steals oldest first.
	if got := d.stealHead(); got != tasks[0] {
		t.Error("stealHead did not return the oldest task")
	}
	if got := d.stealHead(); got != tasks[1] {
		t.Error("second steal out of order")
	}
	if got := d.popTail(); got != tasks[2] {
		t.Error("final popTail wrong")
	}
	if d.popTail() != nil || d.stealHead() != nil || d.size() != 0 {
		t.Error("deque not empty after draining")
	}
}

func TestDequeBoundedRefusesWhenFull(t *testing.T) {
	d := newTaskDeque(2)
	a, _ := mkTask(0)
	b, _ := mkTask(1)
	c, _ := mkTask(2)
	if !d.pushTail(a) || !d.pushTail(b) {
		t.Fatal("pushes within capacity refused")
	}
	if d.pushTail(c) {
		t.Error("push beyond capacity accepted")
	}
	// Freeing a slot re-enables pushes, and wraparound keeps order.
	if d.stealHead() != a {
		t.Fatal("steal order")
	}
	if !d.pushTail(c) {
		t.Error("push after pop refused")
	}
	if d.popTail() != c || d.popTail() != b {
		t.Error("wraparound order wrong")
	}
}

func TestDequeGrowsLazilyPreservingOrder(t *testing.T) {
	// Push past the initial ring size with a wrapped window: growth must
	// unwrap head..tail without reordering or dropping anything.
	d := newTaskDeque(dequeCapacity)
	tasks := make([]*task, dequeInitialSize*3)
	for i := 0; i < dequeInitialSize/2; i++ {
		tk, _ := mkTask(-1)
		if !d.pushTail(tk) || d.stealHead() != tk {
			t.Fatal("warmup push/steal failed")
		}
	}
	for i := range tasks { // head is now mid-ring; this forces repeated grows
		tasks[i], _ = mkTask(i)
		if !d.pushTail(tasks[i]) {
			t.Fatalf("push %d refused below capacity", i)
		}
	}
	for i := range tasks {
		if got := d.stealHead(); got != tasks[i] {
			t.Fatalf("steal %d out of order after growth", i)
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
				if tk := d.stealHead(); tk != nil {
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
		tk := &task{fn: func() { ran.Add(1) }}
		for !d.pushTail(tk) {
			// Full: run one of our own to make room.
			if mine := d.popTail(); mine != nil {
				mine.fn()
			}
		}
	}
	// Drain whatever the thieves have not taken.
	for ran.Load() < n {
		if tk := d.popTail(); tk != nil {
			tk.fn()
		}
	}
	close(done)
	wg.Wait()
	if ran.Load() != n || d.size() != 0 {
		t.Fatalf("tasks ran = %d (deque size %d), want %d and empty", ran.Load(), d.size(), n)
	}
}
