package mtapi

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newTestNode(t *testing.T, workers int) *Node {
	t.Helper()
	n := NewNode(1, 1, &NodeAttributes{Workers: workers})
	t.Cleanup(n.Shutdown)
	return n
}

func TestTaskStartWait(t *testing.T) {
	n := newTestNode(t, 2)
	if _, err := n.CreateAction(1, "double", func(args any) (any, error) {
		return args.(int) * 2, nil
	}); err != nil {
		t.Fatal(err)
	}
	task, err := n.Start(1, 21, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := task.Wait(TimeoutInfinite)
	if err != nil || res.(int) != 42 {
		t.Errorf("result = %v, %v", res, err)
	}
	if task.State() != TaskCompleted {
		t.Errorf("state = %v", task.State())
	}
	if n.Executed() != 1 {
		t.Errorf("Executed = %d", n.Executed())
	}
}

func TestStartUnknownJob(t *testing.T) {
	n := newTestNode(t, 1)
	if _, err := n.Start(99, nil, nil); !errors.Is(err, ErrJobInvalid) {
		t.Errorf("unknown job = %v", err)
	}
}

func TestActionRegistry(t *testing.T) {
	n := newTestNode(t, 1)
	a, err := n.CreateAction(1, "impl", func(any) (any, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.CreateAction(1, "impl", func(any) (any, error) { return nil, nil }); !errors.Is(err, ErrActionExists) {
		t.Errorf("duplicate action = %v", err)
	}
	if _, err := n.CreateAction(1, "", nil); err == nil {
		t.Error("nil fn accepted")
	}
	a.Delete()
	if _, err := n.Start(1, nil, nil); !errors.Is(err, ErrJobInvalid) {
		t.Errorf("job after action delete = %v", err)
	}
}

func TestMultipleActionsRoundRobin(t *testing.T) {
	n := newTestNode(t, 1)
	var aRuns, bRuns atomic.Int32
	_, _ = n.CreateAction(1, "a", func(any) (any, error) { aRuns.Add(1); return nil, nil })
	_, _ = n.CreateAction(1, "b", func(any) (any, error) { bRuns.Add(1); return nil, nil })
	for i := 0; i < 10; i++ {
		task, err := n.Start(1, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := task.Wait(TimeoutInfinite); err != nil {
			t.Fatal(err)
		}
	}
	if aRuns.Load() != 5 || bRuns.Load() != 5 {
		t.Errorf("round robin = %d/%d, want 5/5", aRuns.Load(), bRuns.Load())
	}
}

func TestTaskErrorPropagates(t *testing.T) {
	n := newTestNode(t, 1)
	boom := errors.New("boom")
	_, _ = n.CreateAction(1, "fail", func(any) (any, error) { return nil, boom })
	task, _ := n.Start(1, nil, nil)
	if _, err := task.Wait(TimeoutInfinite); !errors.Is(err, boom) {
		t.Errorf("err = %v, want boom", err)
	}
}

func TestTaskWaitTimeout(t *testing.T) {
	n := newTestNode(t, 1)
	release := make(chan struct{})
	_, _ = n.CreateAction(1, "slow", func(any) (any, error) { <-release; return nil, nil })
	task, _ := n.Start(1, nil, nil)
	if _, err := task.Wait(10 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Errorf("wait = %v, want ErrTimeout", err)
	}
	close(release)
	if _, err := task.Wait(TimeoutInfinite); err != nil {
		t.Fatal(err)
	}
}

func TestTaskCancelQueued(t *testing.T) {
	n := newTestNode(t, 1)
	block := make(chan struct{})
	_, _ = n.CreateAction(1, "block", func(any) (any, error) { <-block; return nil, nil })
	running, _ := n.Start(1, nil, nil) // occupies the only worker
	queued, _ := n.Start(1, nil, nil)
	time.Sleep(5 * time.Millisecond)
	if err := queued.Cancel(); err != nil {
		t.Fatalf("cancel queued: %v", err)
	}
	if _, err := queued.Wait(TimeoutInfinite); !errors.Is(err, ErrCanceled) {
		t.Errorf("wait canceled = %v", err)
	}
	close(block)
	if _, err := running.Wait(TimeoutInfinite); err != nil {
		t.Fatal(err)
	}
	// A running/completed task cannot be canceled.
	if err := running.Cancel(); !errors.Is(err, ErrCanceled) {
		t.Errorf("cancel completed = %v", err)
	}
}

func TestPriorityOrdering(t *testing.T) {
	n := newTestNode(t, 1)
	block := make(chan struct{})
	var order []int
	var mu sync.Mutex
	_, _ = n.CreateAction(1, "gate", func(any) (any, error) { <-block; return nil, nil })
	_, _ = n.CreateAction(2, "record", func(args any) (any, error) {
		mu.Lock()
		order = append(order, args.(int))
		mu.Unlock()
		return nil, nil
	})
	gate, _ := n.Start(1, nil, nil)
	time.Sleep(5 * time.Millisecond)
	low, _ := n.Start(2, 3, &TaskAttributes{Priority: 3})
	mid, _ := n.Start(2, 1, &TaskAttributes{Priority: 1})
	high, _ := n.Start(2, 0, &TaskAttributes{Priority: 0})
	close(block)
	for _, task := range []*Task{gate, low, mid, high} {
		if _, err := task.Wait(TimeoutInfinite); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 3 {
		t.Errorf("execution order = %v, want [0 1 3]", order)
	}
}

func TestBadPriorityRejected(t *testing.T) {
	n := newTestNode(t, 1)
	_, _ = n.CreateAction(1, "x", func(any) (any, error) { return nil, nil })
	if _, err := n.Start(1, nil, &TaskAttributes{Priority: 7}); !errors.Is(err, ErrPriority) {
		t.Errorf("bad priority = %v", err)
	}
	if _, err := n.CreateQueue(1, &QueueAttributes{Priority: -1}); !errors.Is(err, ErrPriority) {
		t.Errorf("bad queue priority = %v", err)
	}
}

func TestGroupWaitAll(t *testing.T) {
	n := newTestNode(t, 4)
	var sum atomic.Int64
	_, _ = n.CreateAction(1, "add", func(args any) (any, error) {
		sum.Add(int64(args.(int)))
		return nil, nil
	})
	g := n.CreateGroup()
	for i := 1; i <= 20; i++ {
		if _, err := g.Start(1, i, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.WaitAll(TimeoutInfinite); err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 210 {
		t.Errorf("sum = %d, want 210", sum.Load())
	}
	if g.Pending() != 0 {
		t.Errorf("pending = %d", g.Pending())
	}
}

func TestGroupWaitAllPropagatesError(t *testing.T) {
	n := newTestNode(t, 2)
	boom := errors.New("boom")
	_, _ = n.CreateAction(1, "ok", func(any) (any, error) { return nil, nil })
	_, _ = n.CreateAction(2, "bad", func(any) (any, error) { return nil, boom })
	g := n.CreateGroup()
	_, _ = g.Start(1, nil, nil)
	_, _ = g.Start(2, nil, nil)
	if err := g.WaitAll(TimeoutInfinite); !errors.Is(err, boom) {
		t.Errorf("WaitAll = %v, want boom", err)
	}
}

func TestGroupWaitAny(t *testing.T) {
	n := newTestNode(t, 2)
	slow := make(chan struct{})
	_, _ = n.CreateAction(1, "fast", func(any) (any, error) { return "fast", nil })
	_, _ = n.CreateAction(2, "slow", func(any) (any, error) { <-slow; return "slow", nil })
	g := n.CreateGroup()
	_, _ = g.Start(2, nil, nil)
	_, _ = g.Start(1, nil, nil)
	first, err := g.WaitAny(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res, _ := first.Wait(TimeoutInfinite); res != "fast" {
		t.Errorf("first finisher = %v, want fast", res)
	}
	close(slow)
	if err := g.WaitAll(TimeoutInfinite); err != nil {
		t.Fatal(err)
	}
	// Drain the remaining any-notification, then the group is exhausted.
	if _, err := g.WaitAny(time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := g.WaitAny(time.Second); !errors.Is(err, ErrGroupCompleted) {
		t.Errorf("exhausted WaitAny = %v", err)
	}
}

func TestQueueSerializesTasks(t *testing.T) {
	n := newTestNode(t, 4)
	var active, maxActive atomic.Int32
	var order []int
	var mu sync.Mutex
	_, _ = n.CreateAction(1, "step", func(args any) (any, error) {
		cur := active.Add(1)
		for {
			m := maxActive.Load()
			if cur <= m || maxActive.CompareAndSwap(m, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		mu.Lock()
		order = append(order, args.(int))
		mu.Unlock()
		active.Add(-1)
		return nil, nil
	})
	q, err := n.CreateQueue(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var last *Task
	for i := 0; i < 10; i++ {
		task, err := q.Enqueue(i)
		if err != nil {
			t.Fatal(err)
		}
		last = task
	}
	if _, err := last.Wait(TimeoutInfinite); err != nil {
		t.Fatal(err)
	}
	if maxActive.Load() != 1 {
		t.Errorf("queue overlap: max active = %d", maxActive.Load())
	}
	mu.Lock()
	defer mu.Unlock()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestTwoQueuesRunConcurrently(t *testing.T) {
	n := newTestNode(t, 2)
	gateA := make(chan struct{})
	var bDone atomic.Bool
	_, _ = n.CreateAction(1, "a", func(any) (any, error) { <-gateA; return nil, nil })
	_, _ = n.CreateAction(2, "b", func(any) (any, error) { bDone.Store(true); return nil, nil })
	qa, _ := n.CreateQueue(1, nil)
	qb, _ := n.CreateQueue(2, nil)
	ta, _ := qa.Enqueue(nil)
	tb, _ := qb.Enqueue(nil)
	if _, err := tb.Wait(2 * time.Second); err != nil {
		t.Fatalf("queue B blocked behind queue A: %v", err)
	}
	close(gateA)
	if _, err := ta.Wait(TimeoutInfinite); err != nil {
		t.Fatal(err)
	}
	if !bDone.Load() {
		t.Error("b never ran")
	}
}

func TestQueueDelete(t *testing.T) {
	n := newTestNode(t, 1)
	block := make(chan struct{})
	_, _ = n.CreateAction(1, "x", func(any) (any, error) { <-block; return nil, nil })
	q, _ := n.CreateQueue(1, nil)
	running, _ := q.Enqueue(nil)
	backlogged, _ := q.Enqueue(nil)
	q.Delete()
	if _, err := backlogged.Wait(TimeoutInfinite); !errors.Is(err, ErrQueueDeleted) {
		t.Errorf("backlogged task = %v, want ErrQueueDeleted", err)
	}
	if _, err := q.Enqueue(nil); !errors.Is(err, ErrQueueDeleted) {
		t.Errorf("enqueue after delete = %v", err)
	}
	close(block)
	if _, err := running.Wait(TimeoutInfinite); err != nil {
		t.Fatal(err)
	}
}

func TestShutdownCancelsQueued(t *testing.T) {
	n := NewNode(1, 2, &NodeAttributes{Workers: 1})
	started, block := make(chan struct{}, 2), make(chan struct{})
	_, _ = n.CreateAction(1, "x", func(any) (any, error) { started <- struct{}{}; <-block; return nil, nil })
	running, _ := n.Start(1, nil, nil)
	queued, _ := n.Start(1, nil, nil)
	<-started // the only worker is now inside the first task
	down := make(chan struct{})
	go func() { n.Shutdown(); close(down) }()
	// Shutdown cancels the queued task at once, then waits for the worker.
	if _, err := queued.Wait(TimeoutInfinite); !errors.Is(err, ErrCanceled) {
		t.Errorf("queued task after shutdown = %v", err)
	}
	close(block)
	<-down
	if _, err := running.Wait(TimeoutInfinite); err != nil {
		t.Errorf("running task = %v", err)
	}
	if _, err := n.Start(1, nil, nil); !errors.Is(err, ErrNodeDown) {
		t.Errorf("start after shutdown = %v", err)
	}
	n.Shutdown() // idempotent
}

func TestParallelTaskStorm(t *testing.T) {
	n := newTestNode(t, 8)
	var count atomic.Int64
	_, _ = n.CreateAction(1, "inc", func(any) (any, error) { count.Add(1); return nil, nil })
	g := n.CreateGroup()
	const tasks = 500
	for i := 0; i < tasks; i++ {
		if _, err := g.Start(1, nil, &TaskAttributes{Priority: i % (MaxPriority + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.WaitAll(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if count.Load() != tasks {
		t.Errorf("count = %d, want %d", count.Load(), tasks)
	}
}

// TestZeroTimeoutPollsOnce pins the timeout contract: 0 returns
// immediately (ErrTimeout while running, the result once done) instead of
// blocking forever as it used to.
func TestZeroTimeoutPollsOnce(t *testing.T) {
	n := newTestNode(t, 1)
	release := make(chan struct{})
	started := make(chan struct{})
	if _, err := n.CreateAction(1, "gate", func(args any) (any, error) {
		close(started)
		<-release
		return "done", nil
	}); err != nil {
		t.Fatal(err)
	}
	g := n.CreateGroup()
	task, err := g.Start(1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	<-started

	poll := make(chan error, 3)
	go func() {
		_, err := task.Wait(0)
		poll <- err
		poll <- g.WaitAll(0)
		_, err = g.WaitAny(0)
		poll <- err
	}()
	for i := 0; i < 3; i++ {
		select {
		case err := <-poll:
			if !errors.Is(err, ErrTimeout) {
				t.Errorf("poll %d while running = %v, want ErrTimeout", i, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("zero-timeout wait blocked")
		}
	}

	close(release)
	if _, err := task.Wait(TimeoutInfinite); err != nil {
		t.Fatal(err)
	}
	if _, err := task.Wait(0); err != nil {
		t.Errorf("Wait(0) on a completed task = %v, want nil", err)
	}
	if err := g.WaitAll(0); err != nil {
		t.Errorf("WaitAll(0) on a completed group = %v, want nil", err)
	}
	if got, err := g.WaitAny(0); err != nil || got != task {
		t.Errorf("WaitAny(0) with a ready completion = %v, %v", got, err)
	}
}
