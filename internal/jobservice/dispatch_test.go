package jobservice

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"openmpmca/internal/core"
	"openmpmca/internal/durable"
	"openmpmca/internal/taskfabric"
)

// TestDispatchInvariant races submits, group cancels, completions and
// Close on a window of two slots: whenever s.mu is free, a free slot
// means every queue is empty, and once Close has returned no job is
// launched and every accepted job settles. Run it under -race.
func TestDispatchInvariant(t *testing.T) {
	const window = 2
	jobs := builtinRegistry(t)
	fab, err := taskfabric.NewFabric(jobs, taskfabric.WithDomains(2))
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	srv, err := New(fab, jobs, WithTenants(testTenants...), WithDispatchWindow(window))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	serve := func(method, path, key, body string) (int, string) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		req.Header.Set("X-API-Key", key)
		srv.ServeHTTP(rec, req)
		return rec.Code, rec.Body.String()
	}
	groups := map[string]string{}
	for _, tn := range testTenants {
		code, body := serve(http.MethodPost, "/v1/groups", tn.Key, "")
		if code != http.StatusCreated {
			t.Fatalf("group create: %d %s", code, body)
		}
		var env struct{ Metadata GroupView }
		if err := json.Unmarshal([]byte(body), &env); err != nil {
			t.Fatal(err)
		}
		groups[tn.Key] = env.Metadata.ID
	}

	var violation atomic.Value
	stop := make(chan struct{})
	var bg sync.WaitGroup
	bg.Add(1)
	go func() { // the invariant, sampled at every chance to take s.mu
		defer bg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			srv.mu.Lock()
			queued := 0
			for _, tn := range srv.order {
				queued += len(tn.queue)
			}
			if srv.free < 0 || srv.free > window || (srv.free > 0 && queued > 0) {
				violation.Store(fmt.Sprintf("free %d with %d queued", srv.free, queued))
			}
			srv.mu.Unlock()
		}
	}()
	for _, tn := range testTenants {
		key := tn.Key
		bg.Add(1)
		go func() { // group cancels of whatever is queued
			defer bg.Done()
			for {
				select {
				case <-stop:
					return
				case <-time.After(2 * time.Millisecond):
				}
				serve(http.MethodPost, "/v1/groups/"+groups[key]+"/cancel", key, "")
			}
		}()
		for k := 0; k < 3; k++ {
			bg.Add(1)
			go func() { // submits until the server closes
				defer bg.Done()
				for i := 0; ; i++ {
					body := `{"job":"echo","arg":"eA=="}`
					switch {
					case i%3 == 1:
						body = `{"job":"spin","arg":"` + base64.StdEncoding.EncodeToString(U64(uint64(200*time.Microsecond))) + `"}`
					case i%3 == 2:
						body = `{"job":"echo","arg":"eA==","group":"` + groups[key] + `"}`
					}
					switch code, _ := serve(http.MethodPost, "/v1/jobs", key, body); code {
					case http.StatusAccepted:
					case http.StatusTooManyRequests:
						time.Sleep(100 * time.Microsecond)
					case http.StatusServiceUnavailable:
						return
					default:
						t.Errorf("submit answered %d", code)
						return
					}
				}
			}()
		}
	}

	time.Sleep(150 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	launched := srv.st.dispatched.Load()
	close(stop)
	bg.Wait()
	if v := violation.Load(); v != nil {
		t.Fatalf("dispatch invariant broken: %s", v)
	}
	if got := srv.st.dispatched.Load(); got != launched {
		t.Fatalf("%d jobs launched after Close returned", got-launched)
	}

	srv.mu.Lock()
	live := len(srv.jobs)
	var all []settledJob
	for _, tn := range srv.order {
		for _, id := range tn.jobs {
			all = append(all, srv.settled.get(id))
		}
	}
	free := srv.free
	srv.mu.Unlock()
	if free != window {
		t.Fatalf("%d of %d slots free after Close", free, window)
	}
	if live != 0 {
		t.Fatalf("Close left %d jobs in Server.jobs, want every job settled out of it", live)
	}
	var ran, canceled uint64
	for _, sj := range all {
		if sj.JobState == nil {
			t.Fatal("a listed job is neither live nor settled")
		}
		switch sj.Status {
		case StatusSucceeded:
			ran++
		case StatusCanceled:
			canceled++
		default:
			t.Fatalf("job %s settled %s", sj.ID, sj.Status)
		}
	}
	if ran != launched || canceled == 0 || ran == 0 {
		t.Fatalf("%d jobs ran and %d were canceled; %d were launched", ran, canceled, launched)
	}
}

// TestReceiptBeforeDispatchRecord: with fsync on, a POST's 202 reaches
// the client while its job's dispatch record is still being appended.
func TestReceiptBeforeDispatchRecord(t *testing.T) {
	jobs := builtinRegistry(t)
	fab, err := taskfabric.NewFabric(jobs, taskfabric.WithDomains(2))
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	srv, err := New(fab, jobs, WithTenants(testTenants...), WithStateDir(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	held, release := make(chan struct{}), make(chan struct{})
	storeAppend := srv.appendEntry
	srv.appendEntry = func(e durable.Entry) error {
		if e.Op == durable.OpDispatch {
			close(held)
			<-release
		}
		return storeAppend(e)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	env := &testEnv{fab: fab, srv: srv, ts: ts}

	receipt := make(chan int, 1)
	go func() {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(`{"job":"echo","arg":"eA=="}`))
		req.Header.Set("X-API-Key", "key-bob")
		resp, err := ts.Client().Do(req)
		if err != nil {
			receipt <- 0
			return
		}
		resp.Body.Close()
		receipt <- resp.StatusCode
	}()
	select {
	case code := <-receipt:
		if code != http.StatusAccepted {
			t.Fatalf("submit answered %d", code)
		}
	case <-time.After(10 * time.Second):
		close(release)
		t.Fatal("the 202 waited for the dispatch record")
	}
	select {
	case <-held:
	case <-time.After(10 * time.Second):
		t.Fatal("the job's dispatch record was never appended")
	}
	close(release)
	if v := env.wait(t, "key-bob", "j-1"); v.Status != StatusSucceeded || string(v.Result) != "x" {
		t.Fatalf("job settled as %+v", v)
	}
	if st := srv.DurableStats(); st.Fsyncs < 3 {
		t.Fatalf("%d fsyncs for an accept, a dispatch and a settle", st.Fsyncs)
	}
}

// heldWriter is a response recorder whose Flush blocks until release is
// closed: it holds an accept between its 202 and its dispatch.
type heldWriter struct {
	*httptest.ResponseRecorder
	flushed, release chan struct{}
}

func (w *heldWriter) Flush() {
	close(w.flushed)
	<-w.release
}

// TestAcceptRacingClose: an accept whose 202 has left when Close drains
// the queues settles its job canceled instead of queueing it, and
// launches nothing after Close.
func TestAcceptRacingClose(t *testing.T) {
	jobs := builtinRegistry(t)
	fab, err := taskfabric.NewFabric(jobs, taskfabric.WithDomains(2))
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	srv, err := New(fab, jobs, WithTenants(testTenants...))
	if err != nil {
		t.Fatal(err)
	}
	w := &heldWriter{ResponseRecorder: httptest.NewRecorder(), flushed: make(chan struct{}), release: make(chan struct{})}
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(`{"job":"echo","arg":"eA=="}`))
	req.Header.Set("X-API-Key", "key-bob")
	served := make(chan struct{})
	go func() {
		defer close(served)
		srv.ServeHTTP(w, req)
	}()
	<-w.flushed
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	close(w.release)
	<-served
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit answered %d: %s", w.Code, w.Body)
	}
	sj := settledOf(srv, "j-1")
	if sj.JobState == nil {
		t.Fatal("the job accepted across Close never settled")
	}
	if st := sj.Status; st != StatusCanceled || srv.st.dispatched.Load() != 0 {
		t.Fatalf("the job accepted across Close settled %s with %d jobs launched", st, srv.st.dispatched.Load())
	}
	if ss := srv.ServiceStats(); ss.Canceled != 1 || ss.Tenants[1].InFlight != 0 {
		t.Fatalf("stats after the canceled accept: %+v", ss)
	}
}

// settledOf returns job id's settled form, zero while it is queued or
// running.
func settledOf(srv *Server, id string) settledJob {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return srv.settled.get(id)
}

// TestNoGoroutinePerTaskJob holds 64 task jobs in flight and requires
// the process to run no more goroutines than with none: a task job
// settles in its task's completion, not on a waiter goroutine of its
// own.
func TestNoGoroutinePerTaskJob(t *testing.T) {
	const held = 64
	jobs := builtinRegistry(t)
	release := make(chan struct{})
	hold := taskfabric.FuncJob{JobName: "hold", Fn: func(_ *core.Runtime, arg []byte) ([]byte, error) {
		<-release
		return arg, nil
	}}
	if err := jobs.Register(hold); err != nil {
		t.Fatal(err)
	}
	fab, err := taskfabric.NewFabric(jobs, taskfabric.WithDomains(2), taskfabric.WithHeartbeat(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	srv, err := New(fab, jobs, WithTenants(testTenants...), WithDispatchWindow(held))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	released := false
	defer func() {
		if !released {
			close(release)
		}
	}()

	before := runtime.NumGoroutine()
	for i := 0; i < held; i++ {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(`{"job":"hold","arg":"eA=="}`))
		req.Header.Set("X-API-Key", "key-alice")
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusAccepted {
			t.Fatalf("POST %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	if n := srv.st.dispatched.Load(); n != held {
		t.Fatalf("%d jobs dispatched, want all %d in flight", n, held)
	}
	if during := runtime.NumGoroutine(); during > before {
		t.Errorf("%d goroutines with %d task jobs in flight, %d with none", during, held, before)
	}

	close(release)
	released = true
	for i := 1; i <= held; i++ {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/jobs/j-%d?wait=10s", i), nil)
		req.Header.Set("X-API-Key", "key-alice")
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"result":"eA=="`) {
			t.Fatalf("job j-%d: %d %s", i, rec.Code, rec.Body)
		}
	}
}
