package core

import (
	"fmt"

	"openmpmca/internal/oerrors"
)

// ErrSaturated is returned by Parallel and friends when the runtime's
// admission control refuses a region: the number of outstanding parallel
// regions has reached the WithMaxConcurrentRegions cap and the bounded
// admission queue is full. The caller owns the backpressure decision —
// retry, shed load, or fail upward. Classified Admission/saturated.
var ErrSaturated = oerrors.Sentinel(oerrors.Admission, oerrors.CodeSaturated,
	"core: runtime saturated: too many concurrent parallel regions")

// ErrCanceled is returned by ParallelCtx and friends when a region was
// torn down before completing — the OpenMP "cancel parallel" semantics:
// every thread of the team unwinds at its next cancellation point (loop
// chunk dispatch, task scheduling, barriers) and the fork returns. The
// returned error wraps the context's cause, so
// errors.Is(err, context.DeadlineExceeded) also works. Classified
// Cancel/canceled.
var ErrCanceled = oerrors.Sentinel(oerrors.Cancel, oerrors.CodeCanceled,
	"core: parallel region canceled")

// ErrInvalidOption wraps every validation error the Option constructors
// return from New, so callers can classify configuration mistakes with
// errors.Is(err, ErrInvalidOption). Classified Admission/invalid_option.
var ErrInvalidOption = oerrors.Sentinel(oerrors.Admission, oerrors.CodeInvalidOption,
	"core: invalid option")

// RegionPanicError reports that a thread's region body panicked. The
// runtime recovers the panic on the worker, cancels the rest of the team
// (every thread unwinds at its next cancellation point instead of hanging
// the region-end barrier), and returns this error from the fork. The
// process stays alive and the runtime remains fully usable.
//
// Only the first panic is carried; later panics from other threads of the
// same region are counted in Stats but not retained.
type RegionPanicError struct {
	// Tid is the team thread id whose body panicked first.
	Tid int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack, captured at recovery.
	Stack []byte
}

func (e *RegionPanicError) Error() string {
	return fmt.Sprintf("core: panic in parallel region body (thread %d): %v", e.Tid, e.Value)
}

// Unwrap exposes the panic value when it was an error, so
// errors.Is/errors.As reach through RegionPanicError to the cause.
func (e *RegionPanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// canceledErr wraps a context cause in ErrCanceled. Both
// errors.Is(err, ErrCanceled) and errors.Is(err, cause) hold.
func canceledErr(cause error) error {
	if cause == nil {
		return ErrCanceled
	}
	return fmt.Errorf("%w: %w", ErrCanceled, cause)
}

// teamUnwind is the sentinel a cancellation point panics with to unwind
// one thread out of a canceled region. The region driver recovers it at
// the top of the thread's run and treats it as a clean exit; it never
// escapes the runtime.
type teamUnwind struct{}

// cancel tears the region down: it records the first cause, flips the
// cancellation flag, aborts the team barrier, and wakes threads parked in
// task idle-waits or ordered-section waits so they reach a cancellation
// point. Idempotent; only the first cause is kept.
func (t *Team) cancel(cause error) {
	t.cancelMu.Lock()
	if t.cancelFlag.Load() {
		t.cancelMu.Unlock()
		return
	}
	t.cancelErr = cause
	t.poisoned = true
	// Order matters: the flag must be observable before the abort
	// releases barrier waiters, so an unblocked thread's checkCancel fires.
	t.cancelFlag.Store(true)
	t.barrier.abort()
	t.cancelMu.Unlock()

	t.rt.stats.Cancels.Add(1)
	t.rt.monitor.Cancel()
	t.wakeIdlers()
	t.wakeOrdered()
}

// canceled reports whether the region has been canceled.
func (t *Team) canceled() bool { return t.cancelFlag.Load() }

// checkCancel is a cancellation point: inside a canceled region it
// unwinds the calling thread via the teamUnwind sentinel.
func (t *Team) checkCancel() {
	if t.cancelFlag.Load() {
		panic(teamUnwind{})
	}
}

// recordPanic converts a recovered region-body panic into the region's
// error and cancels the team. Only the first panic wins the error slot.
func (t *Team) recordPanic(tid int, value any, stack []byte) {
	t.rt.stats.Panics.Add(1)
	t.cancel(&RegionPanicError{Tid: tid, Value: value, Stack: stack})
}

// regionErr returns the error the region should report: nil for a clean
// join, the recorded RegionPanicError or cancellation cause otherwise.
func (t *Team) regionErr() error {
	t.cancelMu.Lock()
	defer t.cancelMu.Unlock()
	return t.cancelErr
}

// wakeOrdered wakes threads parked on ordered-section conditions so they
// observe cancellation. Waiters re-check the cancel flag under the same
// ordMu, so no wakeup is lost.
func (t *Team) wakeOrdered() {
	t.wsMu.Lock()
	defer t.wsMu.Unlock()
	for _, ws := range t.ws {
		ws.ordMu.Lock()
		if ws.ordCond != nil {
			ws.ordCond.Broadcast()
		}
		ws.ordMu.Unlock()
	}
}

// reset rebuilds the coordination structures of a team whose region ended
// abnormally — a barrier abandoned mid-episode, deques still holding
// canceled tasks, workshare records and implicit task groups still
// counting work that will never finish are not safe to reuse — making the
// team leasable again.
func (t *Team) reset() {
	t.barrier = newBarrier(t.rt.barrierKind, t.size)
	t.deques = newTaskDequeSlab(t.ndeques(), dequeCapacity)
	clear(t.ws)
	t.ws = t.ws[:0]
	for i := range t.implicit {
		t.implicit[i].pending.Store(0)
	}
	t.queued.Store(0)
	t.outstanding.Store(0)
	t.poisoned = false
}
