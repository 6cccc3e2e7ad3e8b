package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"math/rand/v2"

	"openmpmca/internal/jobservice"
)

// Workload names are normative: BENCHMARK.json, the README and every
// later PR's report refer to them.
const (
	wOMP     = "omp_constructs"
	wSmall   = "svc_small"
	wDurable = "svc_durable"
	wPayload = "svc_payload"
	wFanout  = "svc_fanout"
)

var workloadNames = []string{wOMP, wSmall, wDurable, wPayload, wFanout}

// Input pool sizes per client. A closed loop's operation count is not
// known up front, so each client cycles through a pool generated before
// any timing; nothing in the stack caches by input, so reuse is harmless.
const (
	singlePool  = 4096
	payloadPool = 384
	burstPool   = 128
	mixPool     = 64
)

// The omp_constructs mix, fixed by the issue: team of 4; one mix is an
// empty Parallel plus one region with For(2048, static), 8 Barrier,
// 8 Critical, 1 Single, 1 Reduce(1024), 32 Task + TaskWait.
const (
	mixTeam     = 4
	mixForN     = 2048
	mixReduceN  = 1024
	mixTasks    = 32
	mixBarriers = 8
	mixCrits    = 8
)

// Burst shape of svc_fanout.
const (
	burstSums = 16
	burstPFs  = 2
	burstSize = burstSums + burstPFs
)

// jobInput is one job the service will be asked to run, with the exact
// bytes it must answer.
type jobInput struct {
	Job  string
	Kind string // "" = task
	Arg  []byte
	N    int
	Want []byte
	// body is the POST /v1/jobs request, marshalled up front so the timed
	// loop measures the stack, not the generator.
	body []byte
}

type submitBody struct {
	Job  string `json:"job"`
	Kind string `json:"kind,omitempty"`
	Arg  []byte `json:"arg,omitempty"`
	N    int    `json:"n,omitempty"`
}

func (in *jobInput) marshal() {
	b, err := json.Marshal(submitBody{Job: in.Job, Kind: in.Kind, Arg: in.Arg, N: in.N})
	if err != nil {
		panic(err) // plain struct of strings, ints and bytes
	}
	in.body = b
}

// bodyInGroup splices a group id into a pre-marshalled submit body.
func (in *jobInput) bodyInGroup(group string) []byte {
	b := make([]byte, 0, len(in.body)+len(group)+12)
	b = append(b, in.body[:len(in.body)-1]...)
	b = append(b, `,"group":"`...)
	b = append(b, group...)
	return append(b, `"}`...)
}

type burstInput struct{ Members []jobInput }

// mixInput is one omp_constructs mix: the arrays its constructs read and
// the checksum a correct runtime must produce.
type mixInput struct {
	A    []uint64 // For: out[i] = mixFn(A[i])
	R    []uint64 // Reduce: wrapping sum
	T    []uint64 // Task j: slot[j] = mixFn(T[j])
	Want uint64
}

// mixFn is the per-element work of the For and Task constructs: a few
// integer ops, so the mix stays construct-bound like EPCC's loops.
func mixFn(x uint64) uint64 { return (x ^ x>>29) * 0x9e3779b97f4a7c15 }

// mixChecksum computes, serially and without the runtime, what one mix
// must return.
func mixChecksum(m *mixInput) uint64 {
	var sum uint64
	for _, a := range m.A {
		sum += mixFn(a)
	}
	for _, r := range m.R {
		sum += r
	}
	for j, t := range m.T {
		sum += mixFn(t) * uint64(j+1)
	}
	// Critical: every thread adds tid+1, mixCrits times. Single: one
	// thread contributes A[0]. Barriers contribute nothing but order.
	sum += mixCrits * uint64(mixTeam*(mixTeam+1)/2)
	sum += m.A[0]
	return sum
}

// inputs is everything one workload run consumes, per client.
type inputs struct {
	workload string
	seed     uint64
	clients  int
	jobs     [][]jobInput   // single-job workloads: [client][i]
	bursts   [][]burstInput // svc_fanout: [client][i]
	mixes    []mixInput     // omp_constructs
}

// genStream names the generator stream of a workload. svc_durable draws
// from svc_small's stream: the two must see byte-identical inputs, so
// their difference is the journal and nothing else.
func genStream(workload string) uint64 {
	if workload == wDurable {
		workload = wSmall
	}
	h := fnv.New64a()
	h.Write([]byte(workload))
	return h.Sum64()
}

func generate(workload string, seed uint64, clients int) (*inputs, error) {
	in := &inputs{workload: workload, seed: seed, clients: clients}
	stream := genStream(workload)
	rngFor := func(client int) *rand.Rand {
		return rand.New(rand.NewPCG(seed, stream+uint64(client)))
	}
	switch workload {
	case wOMP:
		rng := rngFor(0)
		for i := 0; i < mixPool; i++ {
			in.mixes = append(in.mixes, genMix(rng))
		}
	case wSmall, wDurable:
		for c := 0; c < clients; c++ {
			rng := rngFor(c)
			pool := make([]jobInput, singlePool)
			for i := range pool {
				pool[i] = genSmall(rng)
			}
			in.jobs = append(in.jobs, pool)
		}
	case wPayload:
		for c := 0; c < clients; c++ {
			rng := rngFor(c)
			pool := make([]jobInput, payloadPool)
			for i := range pool {
				pool[i] = genEcho(rng, 4<<10, 32<<10)
			}
			in.jobs = append(in.jobs, pool)
		}
	case wFanout:
		for c := 0; c < clients; c++ {
			rng := rngFor(c)
			pool := make([]burstInput, burstPool)
			for i := range pool {
				pool[i] = genBurst(rng)
			}
			in.bursts = append(in.bursts, pool)
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
	}
	return in, nil
}

func genEcho(rng *rand.Rand, lo, hi int) jobInput {
	arg := make([]byte, lo+rng.IntN(hi-lo+1))
	for i := 0; i+8 <= len(arg); i += 8 {
		binary.LittleEndian.PutUint64(arg[i:], rng.Uint64())
	}
	in := jobInput{Job: jobservice.JobEcho, Arg: arg, Want: arg}
	in.marshal()
	return in
}

func genFib(rng *rand.Rand) jobInput {
	n := uint64(10 + rng.IntN(81))
	in := jobInput{Job: jobservice.JobFib, Arg: jobservice.U64(n), Want: jobservice.FibExpected(n)}
	in.marshal()
	return in
}

func genSum(rng *rand.Rand, span int64) jobInput {
	lo := int64(rng.IntN(1000))
	in := jobInput{Job: jobservice.JobSum, Arg: jobservice.I64Pair(lo, lo+span), Want: jobservice.SumExpected(lo, lo+span)}
	in.marshal()
	return in
}

// genSmall draws one svc_small job: 50 % echo (16–256 B), 25 % fib
// (n 10–90), 25 % sum (range 100–10 000). All compute in < 20 µs, so the
// latency measured is the stack's.
func genSmall(rng *rand.Rand) jobInput {
	switch u := rng.Float64(); {
	case u < 0.5:
		return genEcho(rng, 16, 256)
	case u < 0.75:
		return genFib(rng)
	default:
		return genSum(rng, int64(100+rng.IntN(9901)))
	}
}

// genBurst draws one svc_fanout burst: 16 sums with log-uniform range
// 10³–10⁶ (irregular by three decades) and 2 vecsum regions of
// 100 k–400 k iterations.
func genBurst(rng *rand.Rand) burstInput {
	var b burstInput
	for i := 0; i < burstSums; i++ {
		span := int64(math.Pow(10, 3+3*rng.Float64()))
		b.Members = append(b.Members, genSum(rng, span))
	}
	for i := 0; i < burstPFs; i++ {
		n := 100_000 + rng.IntN(300_001)
		in := jobInput{Job: jobservice.KernelVecSum, Kind: jobservice.KindParallelFor, N: n, Want: jobservice.VecSumExpected(n)}
		in.marshal()
		b.Members = append(b.Members, in)
	}
	return b
}

func genMix(rng *rand.Rand) mixInput {
	m := mixInput{A: make([]uint64, mixForN), R: make([]uint64, mixReduceN), T: make([]uint64, mixTasks)}
	for _, s := range [][]uint64{m.A, m.R, m.T} {
		for i := range s {
			s[i] = rng.Uint64()
		}
	}
	m.Want = mixChecksum(&m)
	return m
}

// digest fingerprints every generated input byte: equal seeds must give
// equal digests, different seeds different ones.
func (in *inputs) digest() string {
	h := sha256.New()
	for _, pool := range in.jobs {
		for i := range pool {
			hashJob(h, &pool[i])
		}
	}
	for _, pool := range in.bursts {
		for i := range pool {
			for j := range pool[i].Members {
				hashJob(h, &pool[i].Members[j])
			}
		}
	}
	for i := range in.mixes {
		m := &in.mixes[i]
		for _, s := range [][]uint64{m.A, m.R, m.T, {m.Want}} {
			for _, v := range s {
				hashU64(h, v)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func hashU64(h hash.Hash, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

func hashJob(h hash.Hash, in *jobInput) {
	for _, f := range [][]byte{[]byte(in.Job), []byte(in.Kind), in.Arg, in.Want} {
		hashU64(h, uint64(len(f)))
		h.Write(f)
	}
	hashU64(h, uint64(in.N))
}
