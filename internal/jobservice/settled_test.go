package jobservice

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"sync"
	"testing"
	"time"
)

// TestQueryValue holds queryValue to url.Values.Get over the parsed
// query: first value wins, '%' and '+' unescape, and a pair with a ';'
// or a malformed escape is skipped.
func TestQueryValue(t *testing.T) {
	for _, q := range []string{
		"", "wait", "wait=", "wait=1s", "wait=1s&wait=2s", "a=1&wait=%32s", "wait=1+s", "wait=%31%30ms",
		"wait=%zz&wait=2s", "wait=%&wait=3s", "wai%74=4s", "wait%=1s&wait=5s", "x;wait=1s", "wait=1s;x&wait=6s",
		"&&wait=7ms&", "=1s&wait=8s", "wait+=1s", "Wait=1s", "wait=a=b", "wait=%2B1s", "wait=\xff",
	} {
		want := ""
		if vs, _ := url.ParseQuery(q); vs != nil {
			want = vs.Get("wait")
		}
		if got := queryValue(q, "wait"); got != want {
			t.Errorf("queryValue(%q) = %q, want %q", q, got, want)
		}
	}
}

// serveGet serves one GET in process and returns its status and body.
func serveGet(srv *Server, key, path string) (int, []byte) {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	req.Header.Set("X-API-Key", key)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// TestSettleRacesReads races GETs, lists and /events streams against a
// job's settle, which moves it out of Server.jobs into the settled
// table. No read may miss the job, a GET or list must answer one of the
// job's two renderings, running or settled, and every event stream,
// which follows until the settle, the settled job's log. Run it under
// -race.
func TestSettleRacesReads(t *testing.T) {
	env := newTestEnv(t)
	srv := env.srv
	id := env.submit(t, "key-carol", submitRequest{Job: JobSpin, Arg: U64(uint64(150 * time.Millisecond))}).ID
	var running, runningList []byte
	for deadline := time.Now().Add(10 * time.Second); ; {
		_, running = serveGet(srv, "key-carol", "/v1/jobs/"+id)
		_, runningList = serveGet(srv, "key-carol", "/v1/jobs")
		if bytes.Contains(running, []byte(`"status":"running"`)) && bytes.Contains(runningList, []byte(`"status":"running"`)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never ran: %s", id, running)
		}
		time.Sleep(time.Millisecond)
	}

	type answer struct {
		path string
		code int
		body []byte
	}
	var mu sync.Mutex
	var answers []answer
	var wg sync.WaitGroup
	for _, path := range []string{"/v1/jobs/" + id, "/v1/jobs/" + id + "?wait=1ms", "/v1/jobs", "/v1/jobs/" + id + "/events"} {
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for settled := false; !settled; {
					code, body := serveGet(srv, "key-carol", path)
					settled = code != http.StatusOK || !bytes.Contains(body, []byte(`"running"`))
					mu.Lock()
					answers = append(answers, answer{path, code, body})
					mu.Unlock()
				}
			}()
		}
	}
	wg.Wait()

	_, settled := serveGet(srv, "key-carol", "/v1/jobs/"+id)
	_, settledList := serveGet(srv, "key-carol", "/v1/jobs")
	_, events := serveGet(srv, "key-carol", "/v1/jobs/"+id+"/events")
	if sj := settledOf(srv, id); sj.JobState == nil || sj.Status != StatusSucceeded {
		t.Fatalf("job %s is not in the settled table after its settle: %+v", id, sj)
	}
	for _, a := range answers {
		var ok bool
		switch a.path {
		case "/v1/jobs":
			ok = bytes.Equal(a.body, runningList) || bytes.Equal(a.body, settledList)
		case "/v1/jobs/" + id + "/events":
			ok = bytes.Equal(a.body, events)
		default:
			ok = bytes.Equal(a.body, running) || bytes.Equal(a.body, settled)
		}
		if a.code != http.StatusOK || !ok {
			t.Fatalf("GET %s during the settle answered %d\n%s\nwant one of\n%s\n%s", a.path, a.code, a.body, running, settled)
		}
	}
}

// TestJobsHoldsOnlyLive pins Server.jobs to the queued and running jobs:
// a settled job leaves it for the settled table, however many settle.
func TestJobsHoldsOnlyLive(t *testing.T) {
	env := newTestEnv(t, WithDispatchWindow(1))
	srv := env.srv
	const settles = 40
	for i := 0; i < settles; i++ {
		id := env.submit(t, "key-bob", submitRequest{Job: JobEcho, Arg: []byte("x")}).ID
		env.wait(t, "key-bob", id)
	}
	var ids []string
	for i := 0; i < 3; i++ {
		ids = append(ids, env.submit(t, "key-bob", submitRequest{Job: JobSpin, Arg: U64(uint64(100 * time.Millisecond))}).ID)
	}
	// An accept queues its job after its 202 has left: poll until the
	// counts have caught up.
	for deadline := time.Now().Add(5 * time.Second); ; {
		st := srv.ServiceStats()
		srv.mu.Lock()
		live := len(srv.jobs)
		srv.mu.Unlock()
		if live > 0 && live == st.Queued+st.Running {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after %d settles Server.jobs holds %d jobs with %d queued and %d running, want queued + running",
				settles, live, st.Queued, st.Running)
		}
		time.Sleep(time.Millisecond)
	}
	for _, id := range ids {
		env.wait(t, "key-bob", id)
	}
	srv.mu.Lock()
	live := len(srv.jobs)
	srv.mu.Unlock()
	if live != 0 {
		t.Fatalf("Server.jobs holds %d jobs once all %d have settled, want 0", live, settles+len(ids))
	}
	for i := 1; i <= settles+len(ids); i++ {
		if sj := settledOf(srv, "j-"+strconv.Itoa(i)); sj.JobState == nil || sj.Status != StatusSucceeded {
			t.Fatalf("job j-%d is not in the settled table: %+v", i, sj)
		}
	}
}
