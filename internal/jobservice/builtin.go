package jobservice

import (
	"encoding/binary"
	"fmt"
	"time"

	"openmpmca/internal/core"
	"openmpmca/internal/offload"
	"openmpmca/internal/taskfabric"
)

// Built-in demo jobs and kernels. ompmca-serve registers these so the
// service is usable out of the box, and ompmca-loadgen (plus the test
// suite) submits them and asserts the exact expected payloads — every
// builtin is deterministic with a closed-form or cheaply recomputable
// expected result.
const (
	// JobSum sums the integers in [lo,hi); arg I64Pair(lo,hi), result
	// U64 (two's-complement of the int64 sum).
	JobSum = "sum"
	// JobFib computes Fibonacci(n) iteratively with wrapping uint64
	// arithmetic; arg U64(n), result U64.
	JobFib = "fib"
	// JobEcho returns its argument unchanged.
	JobEcho = "echo"
	// JobSpin sleeps for arg nanoseconds (capped at 500ms) and echoes
	// the arg back; it exists to hold a dispatch slot open long enough
	// for fault injection to land mid-job. Arg U64(ns), result U64(ns).
	JobSpin = "spin"
	// KernelVecSum is the parallel-for builtin: iteration i contributes
	// i*i, folded by wrapping addition; result U64. Expected value is
	// the closed form (n-1)n(2n-1)/6 (mod 2^64).
	KernelVecSum = "vecsum"
)

// spinCap bounds JobSpin so a hostile argument cannot wedge a dispatch
// slot.
const spinCap = 500 * time.Millisecond

// maxRegionIters bounds a parallel_for job's n for the same reason: a
// region holds its dispatch slot until it folds, and at the fabric's
// cap the builtin vecsum finishes within spinCap on one core.
// Admission refuses a larger n with 400; the fabric refuses it too, so
// an accept journaled before this check settles failed on replay.
const maxRegionIters = taskfabric.MaxRegionIters

// U64 encodes v big-endian, the builtins' wire convention.
func U64(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

// DecodeU64 decodes a builtin result.
func DecodeU64(b []byte) (uint64, error) {
	if len(b) != 8 {
		return 0, fmt.Errorf("jobservice: want 8-byte payload, got %d", len(b))
	}
	return binary.BigEndian.Uint64(b), nil
}

// I64Pair encodes (a,b) big-endian, the JobSum argument convention.
func I64Pair(a, b int64) []byte {
	var buf [16]byte
	binary.BigEndian.PutUint64(buf[:8], uint64(a))
	binary.BigEndian.PutUint64(buf[8:], uint64(b))
	return buf[:]
}

// SumExpected is JobSum's closed-form expected result for [lo,hi).
func SumExpected(lo, hi int64) []byte {
	var s uint64
	if hi > lo {
		n := uint64(hi - lo)
		// lo + (lo+1) + ... + (hi-1) = n*lo + n(n-1)/2, wrapping.
		s = n*uint64(lo) + n*(n-1)/2
	}
	return U64(s)
}

// FibExpected is JobFib's expected result.
func FibExpected(n uint64) []byte { return U64(fib(n)) }

func fib(n uint64) uint64 {
	var a, b uint64 = 0, 1
	for i := uint64(0); i < n; i++ {
		a, b = b, a+b
	}
	return a
}

// VecSumExpected is KernelVecSum's closed-form expected result for n
// iterations: sum of i*i over [0,n), i.e. (n-1)n(2n-1)/6 mod 2^64.
func VecSumExpected(n int) []byte {
	var s uint64
	for i := 0; i < n; i++ {
		s += uint64(i) * uint64(i)
	}
	return U64(s)
}

// The builtins' hot loops live in their own small functions. Go aligns
// functions to 32 bytes, so a loop that starts within the first 17 bytes
// of a function stays inside one 64-byte cache line wherever the linker
// places it; inlined into a larger closure, the loop's phase follows the
// size of everything linked before it and straddling a line costs ≈ 1.6×.

//go:noinline
func sumRange(lo, hi int64) uint64 {
	var s uint64
	for i := lo; i < hi; i++ {
		s += uint64(i)
	}
	return s
}

//go:noinline
func sumSquares(lo, hi int) uint64 {
	var s uint64
	for i := lo; i < hi; i++ {
		s += uint64(i) * uint64(i)
	}
	return s
}

// RegisterBuiltinJobs registers the demo jobs on a fabric registry.
func RegisterBuiltinJobs(reg *taskfabric.Registry) error {
	jobs := []taskfabric.Job{
		taskfabric.FuncJob{JobName: JobSum, Fn: func(_ *core.Runtime, arg []byte) ([]byte, error) {
			if len(arg) != 16 {
				return nil, fmt.Errorf("%s: want 16-byte arg, got %d", JobSum, len(arg))
			}
			lo := int64(binary.BigEndian.Uint64(arg[:8]))
			hi := int64(binary.BigEndian.Uint64(arg[8:]))
			return U64(sumRange(lo, hi)), nil
		}},
		taskfabric.FuncJob{JobName: JobFib, Fn: func(_ *core.Runtime, arg []byte) ([]byte, error) {
			n, err := DecodeU64(arg)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", JobFib, err)
			}
			return U64(fib(n)), nil
		}},
		taskfabric.FuncJob{JobName: JobEcho, Fn: func(_ *core.Runtime, arg []byte) ([]byte, error) {
			out := make([]byte, len(arg))
			copy(out, arg)
			return out, nil
		}},
		taskfabric.FuncJob{JobName: JobSpin, Fn: func(_ *core.Runtime, arg []byte) ([]byte, error) {
			ns, err := DecodeU64(arg)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", JobSpin, err)
			}
			d := time.Duration(ns)
			if d < 0 || d > spinCap {
				d = spinCap
			}
			time.Sleep(d)
			return U64(ns), nil
		}},
	}
	for _, j := range jobs {
		if err := reg.Register(j); err != nil {
			return err
		}
	}
	return nil
}

// RegisterBuiltinKernels registers the demo kernels on an offload
// registry.
func RegisterBuiltinKernels(reg *offload.Registry) error {
	return reg.Register(offload.FuncKernel{
		KernelName: KernelVecSum,
		ChunkFn: func(_ *core.Runtime, lo, hi int, _ []byte) ([]byte, error) {
			return U64(sumSquares(lo, hi)), nil
		},
		FoldFn: func(acc, part []byte) ([]byte, error) {
			if acc == nil {
				return part, nil
			}
			a, err := DecodeU64(acc)
			if err != nil {
				return nil, err
			}
			p, err := DecodeU64(part)
			if err != nil {
				return nil, err
			}
			return U64(a + p), nil
		},
	})
}
