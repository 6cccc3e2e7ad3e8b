package jobservice

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"openmpmca/internal/taskfabric"
)

// newProgressEnv boots a service on a two-domain fabric: each job's
// task carries its own observer into the fabric, which feeds the job's
// event log.
func newProgressEnv(t *testing.T) *testEnv {
	t.Helper()
	env, _ := bootEnv(t, builtinRegistry(t), []taskfabric.Option{
		taskfabric.WithDomains(2),
		taskfabric.WithHeartbeat(10 * time.Millisecond),
	})
	return env
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
	env := newProgressEnv(t)
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

// taskAttributed reports whether a fabric job's log holds accepted,
// dispatched and a task_sent line, in that order, and after them a
// task_done line, each task line naming a domain.
func taskAttributed(evs []JobEvent) (sent, done bool) {
	accepted, dispatched := false, false
	for _, e := range evs {
		switch {
		case e.Type == EventAccepted:
			accepted = true
		case e.Type == EventDispatched:
			dispatched = accepted
		case e.Domain == nil || !dispatched:
		case e.Type == EventTaskSent:
			sent = true
		case e.Type == EventTaskDone && sent:
			done = true
		}
	}
	return sent, done
}

// TestJobEventsTask checks fabric-task attribution: a task job's stream
// carries task_sent then task_done with the executing domain.
func TestJobEventsTask(t *testing.T) {
	env := newProgressEnv(t)
	v := env.submit(t, "key-alice", submitRequest{Job: JobSum, Arg: I64Pair(0, 100)})
	evs := readEvents(t, env, "key-alice", v.ID)
	if sent, done := taskAttributed(evs); !sent || !done {
		t.Fatalf("task attribution missing: sent=%v done=%v (%+v)", sent, done, evs)
	}
}

// TestJobEventsEveryTaskAttributed submits 200 sum jobs in batches under
// alice's quota of 64 and requires every settled job's log to hold
// task_sent then task_done, each with a domain, after accepted and
// dispatched. The job's observer rides its task into the fabric, so no
// send can outrun it; a binding made after SubmitJob returned lost the
// first send of a fast task.
func TestJobEventsEveryTaskAttributed(t *testing.T) {
	env := newProgressEnv(t)
	const jobs, batch = 200, 50
	var noSent, noDone int
	for lo := 0; lo < jobs; lo += batch {
		ids := make([]string, 0, batch)
		for i := lo; i < lo+batch; i++ {
			ids = append(ids, env.submit(t, "key-alice", submitRequest{Job: JobSum, Arg: I64Pair(0, int64(i))}).ID)
		}
		for _, id := range ids {
			sent, done := taskAttributed(readEvents(t, env, "key-alice", id))
			if !sent {
				noSent++
			}
			if !done {
				noDone++
			}
		}
	}
	if noSent+noDone > 0 {
		t.Fatalf("of %d jobs: %d without accepted, dispatched, task_sent in order, %d without task_done after them",
			jobs, noSent, noDone)
	}
}

// TestJobEventsFollowerMidJob attaches a follower to a log that already
// holds events, the way apiJobEvents follows one, while the job keeps
// appending: the follower must see every event exactly once, in order.
func TestJobEventsFollowerMidJob(t *testing.T) {
	const total = 200
	l := new(eventLog)
	for i := 0; i < total/4; i++ {
		l.add(event{typ: EventChunk, chunk: int32(i), domain: noDomain})
	}
	got := make(chan []int)
	go func() {
		var seqs []int
		var next int32
		for {
			lines, n, done, pulse := l.appendSince(nil, next)
			next = n
			for dec := json.NewDecoder(bytes.NewReader(lines)); ; {
				var e JobEvent
				if dec.Decode(&e) != nil {
					break
				}
				seqs = append(seqs, e.Seq)
			}
			if done {
				got <- seqs
				return
			}
			<-pulse
		}
	}()
	// Between bursts, wait until the follower is about to park:
	// appendSince made a pulse for it.
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
		l.add(event{typ: EventChunk, chunk: int32(i), domain: noDomain})
	}
	l.add(event{typ: EventSettled, chunk: -1, domain: noDomain, status: StatusSucceeded})
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
	l := &eventLog{events: make([]event, 0, eventLogCap)}
	allocs := testing.AllocsPerRun(100, func() {
		l.add(event{typ: EventChunk, chunk: 1, domain: noDomain})
	})
	if allocs != 0 {
		t.Fatalf("eventLog.add allocates %.0f objects with no follower, want 0", allocs)
	}
}

// TestGroupStreamProgress checks the group stream interleaves member
// progress lines before the settled-member and drained events.
func TestGroupStreamProgress(t *testing.T) {
	env := newProgressEnv(t)
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

// flushRecorder is a ResponseWriter that records the body and counts
// writes and flushes.
type flushRecorder struct {
	*httptest.ResponseRecorder
	writes, flushes int
}

func (f *flushRecorder) Write(b []byte) (int, error) {
	f.writes++
	return f.ResponseRecorder.Write(b)
}

func (f *flushRecorder) Flush() {
	f.flushes++
	f.ResponseRecorder.Flush()
}

// TestGroupStreamOneWritePerWake streams a group whose members all
// settled before the stream opened: the whole backlog leaves in one
// write and one flush, as progress lines, then job lines, then
// "drained", each line exactly what encoding/json makes of its event.
func TestGroupStreamOneWritePerWake(t *testing.T) {
	env := newProgressEnv(t)
	code, genv := env.do(t, http.MethodPost, "/v1/groups", "key-alice", nil)
	if code != http.StatusCreated {
		t.Fatalf("group create: %d", code)
	}
	var gv GroupView
	meta(t, genv, &gv)
	const members = 3
	for i := 0; i < members; i++ {
		v := env.submit(t, "key-alice", submitRequest{
			Job: KernelVecSum, Kind: KindParallelFor, N: 4000, Group: gv.ID,
		})
		env.wait(t, "key-alice", v.ID)
	}

	req := httptest.NewRequest(http.MethodGet, "/v1/groups/"+gv.ID+"/stream", nil)
	req.SetPathValue("id", gv.ID)
	rec := &flushRecorder{ResponseRecorder: httptest.NewRecorder()}
	env.srv.apiGroupStream(rec, req, env.srv.byName["alice"])
	if rec.writes != 1 || rec.flushes != 1 {
		t.Fatalf("backlog took %d writes and %d flushes, want 1 and 1", rec.writes, rec.flushes)
	}

	rank := map[string]int{"progress": 0, "job": 1, "drained": 2}
	last, counts := 0, map[string]int{}
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		var ev streamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		r, ok := rank[ev.Type]
		if !ok || r < last {
			t.Fatalf("line %q out of order after a %d-ranked line", sc.Text(), last)
		}
		last = r
		counts[ev.Type]++
		again, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, sc.Bytes()) {
			t.Fatalf("line is not its event's encoding:\n got %s\nwant %s", sc.Bytes(), again)
		}
	}
	if counts["progress"] == 0 || counts["job"] != members || counts["drained"] != 1 {
		t.Fatalf("stream shape: %v, want progress lines, %d jobs, one drained", counts, members)
	}
}
