package jobservice

import (
	"math/bits"
	"sync"
)

// Latency distributions. When a dispatched job settles, complete folds
// its lifecycle instants into one fixed-bucket histogram per interval,
// served as the latency section of GET /v1/stats. The intervals, their
// names and their instants are the benchmark harness's spans
// (benchmark/trace.go), so the service and the harness report the same
// quantities:
//
//	jobservice.accept    submitted → accepted event
//	jobservice.queue     accepted → dispatched event
//	taskfabric.dispatch  dispatched → first task_sent     (task jobs)
//	taskfabric.remote    first task_sent → last task_done (task jobs)
//	jobservice.complete  last task_done → settled event   (task jobs)
//	offload.region       dispatched → settled             (parallel_for jobs)
//
// The dispatched and settled events carry j.started and j.finished as
// their instants, so a region's fold reads neither from its event log,
// whose drop-oldest window can lose a long region's early events.

// Interval indices into latencyHists.h.
const (
	latAccept = iota
	latQueue
	latDispatch
	latRemote
	latComplete
	latRegion
	numLatencies
)

// latencyNames are the intervals' names in the latency section.
var latencyNames = [numLatencies]string{
	latAccept:   "jobservice.accept",
	latQueue:    "jobservice.queue",
	latDispatch: "taskfabric.dispatch",
	latRemote:   "taskfabric.remote",
	latComplete: "jobservice.complete",
	latRegion:   "offload.region",
}

// LatencyBuckets is the number of buckets in every Histogram.
const LatencyBuckets = 28

// Histogram is one latency distribution over fixed power-of-two bounds:
// Buckets[0] counts intervals under 1 µs, Buckets[i] those of at least
// 2^(i-1) and under 2^i µs, and the last bucket everything from
// 2^(LatencyBuckets-2) µs (about 67 s) up. SumNs is the intervals'
// total in nanoseconds.
type Histogram struct {
	Count   uint64                 `json:"count"`
	SumNs   int64                  `json:"sum_ns"`
	Buckets [LatencyBuckets]uint64 `json:"buckets"`
}

// observe adds one interval of ns nanoseconds. A negative interval (the
// wall clock stepped back between two instants) counts as 0.
func (h *Histogram) observe(ns int64) {
	ns = max(ns, 0)
	h.Count++
	h.SumNs += ns
	h.Buckets[min(bits.Len64(uint64(ns)/1000), LatencyBuckets-1)]++
}

// latencyHists are a server's histograms, one per interval.
type latencyHists struct {
	mu sync.Mutex
	h  [numLatencies]Histogram
}

// fold adds one settled job's intervals. It runs on the job's completion
// goroutine after settle, which stamped j.finished there; claim stamped
// j.started before launch. A task job whose submit failed logged no task
// events and adds to accept and queue only.
func (l *latencyHists) fold(j *jobRec) {
	dispatched, settled := j.started.UnixNano(), j.finished.UnixNano()
	var sent, done int64
	if j.kind != KindParallelFor {
		sent, done = j.events.taskInstants()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.h[latAccept].observe(j.accepted - j.submitted.UnixNano())
	l.h[latQueue].observe(dispatched - j.accepted)
	switch {
	case j.kind == KindParallelFor:
		l.h[latRegion].observe(settled - dispatched)
	case sent != 0 && done != 0:
		l.h[latDispatch].observe(sent - dispatched)
		l.h[latRemote].observe(done - sent)
		l.h[latComplete].observe(settled - done)
	}
}

// snapshot copies the histograms out by name.
func (l *latencyHists) snapshot() map[string]Histogram {
	l.mu.Lock()
	defer l.mu.Unlock()
	m := make(map[string]Histogram, numLatencies)
	for i, h := range l.h {
		m[latencyNames[i]] = h
	}
	return m
}
