package core

import (
	"sync"
	"sync/atomic"
)

// teamBarrier is a reusable synchronization barrier for a fixed-size team.
// Two implementations exist so the ablation bench can compare them:
// centralBarrier (the default, matching libGOMP's central counter) and
// treeBarrier (a combining tree that trades latency for contention).
type teamBarrier interface {
	// Wait blocks thread tid until all team members arrive. onRelease, if
	// non-nil, runs exactly once per episode after the last arrival and
	// before ANY thread is released — the window in which the runtime
	// notifies the virtual-time monitor so that post-barrier work cannot
	// race the clock alignment. Wait reports true to exactly one caller
	// per episode (the one that ran onRelease).
	Wait(tid int, onRelease func()) bool

	// abort is the team's cancellation hook (Team.cancel): it releases
	// every parked thread and latches, so every later arrival returns at
	// once without completing an episode. An aborted barrier's internal
	// state is unspecified; the runtime rebuilds the barrier before
	// reusing the team (Team.reset). Safe to call more than once.
	abort()
}

// BarrierKind selects the barrier algorithm a runtime uses.
type BarrierKind int

const (
	// BarrierCentral is a central-counter broadcast barrier.
	BarrierCentral BarrierKind = iota
	// BarrierTree is a binary combining-tree barrier.
	BarrierTree
)

func (k BarrierKind) String() string {
	if k == BarrierTree {
		return "tree"
	}
	return "central"
}

func newBarrier(kind BarrierKind, size int) teamBarrier {
	if kind == BarrierTree && size > 1 {
		return newTreeBarrier(size)
	}
	return newCentralBarrier(size)
}

// centralBarrier: each arrival increments an atomic counter; the last
// arrival resets it, runs onRelease and bumps the generation word, which
// is what every other thread of the episode waits on (waitCell's
// yield-then-park). Nothing is allocated per episode. abort latches a flag
// the waiters' predicate also reads, so a parked thread waits on one cell,
// never on a second, team-shared channel.
type centralBarrier struct {
	size int

	arrived atomic.Int32
	gen     atomic.Uint32
	aborted atomic.Bool
	wait    waitCell
}

func newCentralBarrier(size int) *centralBarrier {
	b := &centralBarrier{size: size}
	b.wait.init()
	return b
}

func (b *centralBarrier) Wait(_ int, onRelease func()) bool {
	if b.size <= 1 {
		if onRelease != nil {
			onRelease()
		}
		return true
	}
	if b.aborted.Load() {
		return false
	}
	// The generation cannot move before this thread arrives, so the value
	// read here is this episode's.
	gen := b.gen.Load()
	if b.arrived.Add(1) == int32(b.size) {
		// The counter is reset before the release: no thread can arrive
		// at the next episode until the generation moves.
		b.arrived.Store(0)
		if b.aborted.Load() {
			return false
		}
		if onRelease != nil {
			onRelease()
		}
		b.gen.Add(1)
		b.wait.wake()
		return true
	}
	b.wait.await(func() bool { return b.gen.Load() != gen || b.aborted.Load() })
	return false
}

// abort latches and wakes every parked waiter; a waiter's predicate reads
// the latch, so an abort racing a park is never lost (waitCell.wake).
func (b *centralBarrier) abort() {
	b.aborted.Store(true)
	b.wait.wake()
}

// treeBarrier: threads combine pairwise up a binary tree rooted at thread
// 0, which then broadcasts the release down the same tree. Positions are
// the fixed thread ids, so per-channel traffic alternates strictly
// send/receive across episodes; with capacity-1 channels the barrier is
// reusable without sense reversal.
type treeBarrier struct {
	size    int
	arrive  []chan struct{} // child -> parent notification, one per thread
	release []chan struct{} // parent -> child release, one per thread

	abortCh   chan struct{} // closed once by abort
	abortOnce sync.Once
}

func newTreeBarrier(size int) *treeBarrier {
	b := &treeBarrier{
		size:    size,
		arrive:  make([]chan struct{}, size),
		release: make([]chan struct{}, size),
		abortCh: make(chan struct{}),
	}
	for i := range b.arrive {
		b.arrive[i] = make(chan struct{}, 1)
		b.release[i] = make(chan struct{}, 1)
	}
	return b
}

// abort closes the barrier's own abort channel, which every step of Wait
// selects against.
func (b *treeBarrier) abort() {
	b.abortOnce.Do(func() { close(b.abortCh) })
}

func (b *treeBarrier) Wait(tid int, onRelease func()) bool {
	if b.size <= 1 {
		if onRelease != nil {
			onRelease()
		}
		return true
	}
	// Collect arrivals from both children, then notify the parent and wait
	// for the downstream release. Every step — receives and sends alike —
	// selects against abort, so a canceled team cannot strand a thread at
	// any rung of the tree.
	abort := b.abortCh
	left, right := 2*tid+1, 2*tid+2
	if left < b.size {
		select {
		case <-b.arrive[left]:
		case <-abort:
			return false
		}
	}
	if right < b.size {
		select {
		case <-b.arrive[right]:
		case <-abort:
			return false
		}
	}
	if tid != 0 {
		select {
		case b.arrive[tid] <- struct{}{}:
		case <-abort:
			return false
		}
		select {
		case <-b.release[tid]:
		case <-abort:
			return false
		}
	} else if onRelease != nil {
		// The root sees the last arrival; run the hook before releasing.
		onRelease()
	}
	// Release children top-down.
	if left < b.size {
		select {
		case b.release[left] <- struct{}{}:
		case <-abort:
			return false
		}
	}
	if right < b.size {
		select {
		case b.release[right] <- struct{}{}:
		case <-abort:
			return false
		}
	}
	return tid == 0
}
