package jobservice

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"openmpmca/internal/offload"
	"openmpmca/internal/spans"
	"openmpmca/internal/taskfabric"
)

// newProgressEnv boots a service with a ProgressHub wired as the
// fabric's event sink (teeing into a spans exporter, the production
// shape), so fabric task events are attributed to jobs.
func newProgressEnv(t *testing.T) (*testEnv, *spans.Exporter) {
	t.Helper()
	x := spans.NewExporter(0)
	hub := NewProgressHub(x)
	jobs := taskfabric.NewRegistry()
	if err := RegisterBuiltinJobs(jobs); err != nil {
		t.Fatal(err)
	}
	fab, err := taskfabric.NewFabric(jobs,
		taskfabric.WithDomains(2),
		taskfabric.WithHeartbeat(10*time.Millisecond),
		taskfabric.WithEventSink(hub),
	)
	if err != nil {
		t.Fatal(err)
	}
	kernels := offload.NewRegistry()
	if err := RegisterBuiltinKernels(kernels); err != nil {
		fab.Close()
		t.Fatal(err)
	}
	off, err := taskfabric.NewOffloader(kernels,
		taskfabric.WithDomains(2),
		taskfabric.WithHeartbeat(10*time.Millisecond),
	)
	if err != nil {
		fab.Close()
		t.Fatal(err)
	}
	srv, err := New(fab, jobs,
		WithTenants(testTenants...),
		WithOffloader(off, kernels),
		WithProgress(hub),
		WithSpans(x),
	)
	if err != nil {
		off.Close()
		fab.Close()
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	env := &testEnv{fab: fab, off: off, srv: srv, ts: ts}
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		off.Close()
		fab.Close()
	})
	return env, x
}

// readEvents follows one job's NDJSON event stream to its settled
// terminator.
func readEvents(t *testing.T, env *testEnv, key, id string) []JobEvent {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, env.ts.URL+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-API-Key", key)
	resp, err := env.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events stream: status %d", resp.StatusCode)
	}
	var out []JobEvent
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var e JobEvent
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		out = append(out, e)
		if e.Type == EventSettled {
			return out
		}
	}
	t.Fatalf("stream ended without a settled event: %+v", out)
	return nil
}

// TestJobEventsParallelFor follows a parallel_for job's event stream
// and checks the full lifecycle lands in order: accepted, dispatched,
// per-chunk completions with the region's chunk count, settled.
func TestJobEventsParallelFor(t *testing.T) {
	env, _ := newProgressEnv(t)
	v := env.submit(t, "key-alice", submitRequest{Job: KernelVecSum, Kind: KindParallelFor, N: 4000})
	evs := readEvents(t, env, "key-alice", v.ID)
	var accepted, dispatched, chunks int
	total := -1
	lastSeq := -1
	for _, e := range evs {
		if e.Seq <= lastSeq {
			t.Fatalf("event seq not increasing: %+v", evs)
		}
		lastSeq = e.Seq
		switch e.Type {
		case EventAccepted:
			accepted++
		case EventDispatched:
			dispatched++
		case EventChunk:
			chunks++
			total = e.Total
			if e.Domain == nil {
				t.Fatalf("chunk event without a domain: %+v", e)
			}
		}
	}
	if accepted != 1 || dispatched != 1 {
		t.Fatalf("lifecycle events: accepted=%d dispatched=%d (%+v)", accepted, dispatched, evs)
	}
	if chunks == 0 || chunks != total {
		t.Fatalf("saw %d chunk events, region advertised %d", chunks, total)
	}
	if last := evs[len(evs)-1]; last.Status != StatusSucceeded {
		t.Fatalf("settled status %q", last.Status)
	}
}

// TestJobEventsTask checks fabric-task attribution through the
// ProgressHub: a task job's stream carries task_sent/task_done with the
// executing domain, and the teed spans exporter still sees the events.
func TestJobEventsTask(t *testing.T) {
	env, x := newProgressEnv(t)
	v := env.submit(t, "key-alice", submitRequest{Job: JobSum, Arg: I64Pair(0, 100)})
	evs := readEvents(t, env, "key-alice", v.ID)
	var sent, recvd int
	for _, e := range evs {
		switch e.Type {
		case EventTaskSent:
			sent++
		case EventTaskDone:
			recvd++
			if e.Domain == nil {
				t.Fatalf("task_done without a domain: %+v", e)
			}
		}
	}
	if sent == 0 || recvd == 0 {
		t.Fatalf("task attribution missing: sent=%d done=%d (%+v)", sent, recvd, evs)
	}
	// The tee must not starve the spans exporter.
	if st := x.Stats(); st.Completed == 0 {
		t.Fatalf("spans exporter saw nothing through the hub: %+v", st)
	}
}

// TestJobEventsFollowerMidJob attaches a follower to a log that already
// holds events, the way apiJobEvents follows one, while the job keeps
// appending: the follower must see every event exactly once, in order.
func TestJobEventsFollowerMidJob(t *testing.T) {
	const total = 200
	l := new(eventLog)
	for i := 0; i < total/4; i++ {
		l.add(JobEvent{Type: EventChunk, Chunk: i})
	}
	got := make(chan []int)
	go func() {
		var seqs []int
		next := 0
		for {
			evs, done, pulse := l.since(next)
			for _, e := range evs {
				seqs = append(seqs, e.Seq)
				next = e.Seq + 1
			}
			if done {
				got <- seqs
				return
			}
			<-pulse
		}
	}()
	// Between bursts, wait until the follower is about to park: since
	// made a pulse for it.
	parked := func() bool {
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.pulse != nil
	}
	for i := total / 4; i < total-1; i++ {
		if i%16 == 0 {
			for !parked() {
				runtime.Gosched()
			}
		}
		l.add(JobEvent{Type: EventChunk, Chunk: i})
	}
	l.add(JobEvent{Type: EventSettled, Chunk: -1, Status: StatusSucceeded})
	seqs := <-got
	if len(seqs) != total {
		t.Fatalf("follower saw %d events, want %d", len(seqs), total)
	}
	for i, s := range seqs {
		if s != i {
			t.Fatalf("follower saw seq %d at position %d", s, i)
		}
	}
}

// TestJobEventsAddAllocs pins the cost of an event on a job nobody
// follows: a warm add allocates nothing.
func TestJobEventsAddAllocs(t *testing.T) {
	l := &eventLog{events: make([]JobEvent, 0, eventLogCap)}
	allocs := testing.AllocsPerRun(100, func() {
		l.add(JobEvent{Type: EventChunk, Chunk: 1})
	})
	if allocs != 0 {
		t.Fatalf("eventLog.add allocates %.0f objects with no follower, want 0", allocs)
	}
}

// TestGroupStreamProgress checks the group stream interleaves member
// progress lines before the settled-member and drained events.
func TestGroupStreamProgress(t *testing.T) {
	env, _ := newProgressEnv(t)
	code, genv := env.do(t, http.MethodPost, "/v1/groups", "key-alice", nil)
	if code != http.StatusCreated {
		t.Fatalf("group create: %d", code)
	}
	var gv GroupView
	meta(t, genv, &gv)
	v := env.submit(t, "key-alice", submitRequest{
		Job: KernelVecSum, Kind: KindParallelFor, N: 4000, Group: gv.ID,
	})
	env.wait(t, "key-alice", v.ID)

	req, err := http.NewRequest(http.MethodGet, env.ts.URL+"/v1/groups/"+gv.ID+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-API-Key", "key-alice")
	resp, err := env.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var progress, jobsSeen, drained int
	sawJob := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev streamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		switch ev.Type {
		case "progress":
			if sawJob {
				t.Fatal("progress line after the member settled event")
			}
			if ev.JobID != v.ID || ev.Event == nil {
				t.Fatalf("progress line malformed: %+v", ev)
			}
			progress++
		case "job":
			sawJob = true
			jobsSeen++
		case "drained":
			drained++
		}
		if drained > 0 {
			break
		}
	}
	if progress == 0 || jobsSeen != 1 || drained != 1 {
		t.Fatalf("stream shape: progress=%d jobs=%d drained=%d", progress, jobsSeen, drained)
	}
}
