package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"

	"openmpmca/internal/jobservice"
)

// span is one interval at a layer boundary. Spans of one request share
// Job; Parent is the id of the span that caused this one (0 for a root).
// All instants are unix nanoseconds on the process clock, which the
// client and the in-process server share.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Job    string `json:"job"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Domain *int   `json:"domain,omitempty"` // executing domain, -1 = host
}

// Span names. The module prefix says which layer the interval is charged
// to; README.md maps each to the end-to-end metric it should move.
const (
	spanJob      = "client.job"
	spanBurst    = "client.burst"
	spanCreate   = "jobservice.group_create"
	spanSubmit   = "jobservice.submit"
	spanAccept   = "jobservice.accept"
	spanQueue    = "jobservice.queue"
	spanDispatch = "taskfabric.dispatch"
	spanRemote   = "taskfabric.remote"
	spanComplete = "jobservice.complete"
	spanNotify   = "jobservice.notify"
	spanRegion   = "offload.region"
	spanChunk    = "offload.chunk"
)

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	spans []span
	// incomplete counts jobs whose event log lacked an instant the tree
	// needs (the hub binds a task to its job after SubmitJob returns, so
	// a fast task_sent can precede the binding); they are left out.
	incomplete int
	jobs       int
	taskJobs   map[string]bool // ids of kind=task jobs with a complete tree
	rtts       []float64       // POST→202 round trips, ms
	lines      int             // group stream lines read
}

func (t *tracer) add(parent int, job, name string, start, end int64, domain *int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Job: job, Name: name, Start: start, End: end, Domain: domain})
	return id
}

// instants are the server-side timestamps of one job, read from its
// public event log and JobView.
type instants struct {
	submitted, accepted, dispatched, taskSent, taskDone, settled int64
	domain                                                       *int
	chunks                                                       []jobservice.JobEvent
}

func readInstants(v *jobservice.JobView, evs []jobservice.JobEvent) instants {
	in := instants{submitted: v.SubmittedAt.UnixNano()}
	for _, e := range evs {
		switch e.Type {
		case jobservice.EventAccepted:
			in.accepted = e.AtNs
		case jobservice.EventDispatched:
			in.dispatched = e.AtNs
		case jobservice.EventTaskSent:
			if in.taskSent == 0 { // a resend does not restart the clock
				in.taskSent = e.AtNs
			}
		case jobservice.EventTaskDone:
			in.taskDone = e.AtNs
			in.domain = e.Domain
		case jobservice.EventChunk:
			in.chunks = append(in.chunks, e)
		case jobservice.EventSettled:
			in.settled = e.AtNs
		}
	}
	if in.settled == 0 && v.FinishedAt != nil {
		// Group streams carry no settled line; finished_at is stamped in
		// the same critical section.
		in.settled = v.FinishedAt.UnixNano()
	}
	return in
}

// step is one child of a job's root span: it ends at the named instant
// and starts where the previous one ended.
type step struct {
	name string
	at   int64
}

// addJob records one job's span tree under parent: the root runs from
// the POST leaving the client to the verified bytes, and its children
// tile it along the steps that block the result.
func (t *tracer) addJob(parent int, id string, post, done int64, v *jobservice.JobView, evs []jobservice.JobEvent) {
	in := readInstants(v, evs)
	steps := []step{{spanSubmit, in.submitted}, {spanAccept, in.accepted}, {spanQueue, in.dispatched}}
	if v.Kind == jobservice.KindParallelFor {
		steps = append(steps, step{spanRegion, in.settled})
	} else {
		steps = append(steps, step{spanDispatch, in.taskSent}, step{spanRemote, in.taskDone}, step{spanComplete, in.settled})
	}
	steps = append(steps, step{spanNotify, done})

	t.mu.Lock()
	t.jobs++
	prev := post
	for _, s := range steps {
		if s.at < prev {
			t.incomplete++
			t.mu.Unlock()
			return
		}
		prev = s.at
	}
	if v.Kind != jobservice.KindParallelFor {
		if t.taskJobs == nil {
			t.taskJobs = make(map[string]bool)
		}
		t.taskJobs[id] = true
	}
	t.mu.Unlock()

	root := t.add(parent, id, spanJob, post, done, nil)
	prev = post
	for _, s := range steps {
		var dom *int
		if s.name == spanRemote {
			dom = in.domain
		}
		sid := t.add(root, id, s.name, prev, s.at, dom)
		if s.name == spanRegion {
			// Chunk events carry completion instants only, so each chunk
			// span runs from the previous completion: they tile the region
			// and its self time is the fold and settle after the last one.
			cprev := prev
			for _, c := range in.chunks {
				if c.AtNs >= cprev && c.AtNs <= s.at {
					t.add(sid, id, spanChunk, cprev, c.AtNs, c.Domain)
					cprev = c.AtNs
				}
			}
		}
		prev = s.at
	}
}

// addRTT records one POST→202 round trip. It is not a span of the tree:
// the 202 travels back while the dispatcher already works on the job.
func (t *tracer) addRTT(ns int64) {
	t.mu.Lock()
	t.rtts = append(t.rtts, float64(ns)/1e6)
	t.mu.Unlock()
}

// addBurst records one svc_fanout operation: the burst root, the group
// creation, and every member's job tree beneath it.
func (t *tracer) addBurst(bt *burstTimes) {
	id := "burst-" + bt.members[0].id
	root := t.add(0, id, spanBurst, bt.start, bt.drained, nil)
	t.add(root, id, spanCreate, bt.start, bt.created, nil)
	for i := range bt.members {
		m := &bt.members[i]
		t.addJob(root, m.id, m.post, m.done, &m.view, m.events)
		t.addRTT(m.accepted - m.post)
	}
	t.mu.Lock()
	t.lines += bt.lines
	t.mu.Unlock()
}

// ledger turns the spans into the per-layer timing metrics.
func (t *tracer) ledger(m metrics) {
	d := durations(t.spans)
	m["jobservice.submit_p50_ms"] = median(d[spanSubmit])
	m["jobservice.submit_rtt_p50_ms"] = median(t.rtts)
	m["jobservice.accept_p50_ms"] = median(d[spanAccept])
	m["jobservice.queue_p50_ms"] = median(d[spanQueue])
	m["jobservice.queue_p90_ms"] = p90(d[spanQueue])
	m["jobservice.complete_p50_ms"] = median(d[spanComplete])
	m["jobservice.notify_p50_ms"] = median(d[spanNotify])
	m["taskfabric.dispatch_p50_us"] = 1e3 * median(d[spanDispatch])
	m["taskfabric.remote_p50_ms"] = median(d[spanRemote])
	m["offload.region_p50_ms"] = median(d[spanRegion])
	if t.jobs > 0 {
		m["client.trace_incomplete_frac"] = float64(t.incomplete) / float64(t.jobs)
	}
	// Consistency: over the kind=task jobs, the children's median self
	// times should add up to the root's median duration.
	var tasks []span
	for _, s := range t.spans {
		if t.taskJobs[s.Job] {
			tasks = append(tasks, s)
		}
	}
	self, sum := selfTimes(tasks), 0.0
	for name, xs := range self {
		if name != spanJob {
			sum += median(xs)
		}
	}
	if root := median(durations(tasks)[spanJob]); root > 0 {
		m["client.trace_sum_frac"] = sum / root
	}
}

// selfTimes returns, per span name, every span's self time in ms: its
// duration minus the part of it that its children cover.
func selfTimes(spans []span) map[string][]float64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string][]float64)
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, edge := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, edge), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-covered)/1e6)
	}
	return out
}

// durations returns, per span name, every span's full duration in ms.
func durations(spans []span) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start)/1e6)
	}
	return out
}

// write dumps the spans as one JSON array.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
