package jobservice

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"openmpmca/internal/taskfabric"
)

// bufWriter is a response writer that allocates nothing once its body
// buffer has grown: the in-process rig reuses one per request kind, so
// what a measured request allocates is the service's.
type bufWriter struct {
	h    http.Header
	code int
	body []byte
}

func newBufWriter() *bufWriter {
	return &bufWriter{h: make(http.Header), body: make([]byte, 0, 4096)}
}

func (w *bufWriter) Header() http.Header         { return w.h }
func (w *bufWriter) WriteHeader(code int)        { w.code = code }
func (w *bufWriter) Write(b []byte) (int, error) { w.body = append(w.body, b...); return len(b), nil }
func (w *bufWriter) Flush()                      {}

func (w *bufWriter) reset() {
	clear(w.h)
	w.code = 0
	w.body = w.body[:0]
}

// echoRig submits echo jobs to a fresh service in process and long-polls
// each: one POST /v1/jobs and one GET /v1/jobs/{id}?wait=10s per job.
// Every request is built before the measured loop, so the loop holds no
// httptest scaffolding.
type echoRig struct {
	srv       *Server
	posts     []*http.Request
	gets      []*http.Request
	post, get *bufWriter
	next      int
}

func newEchoRig(t testing.TB, jobs int) *echoRig {
	t.Helper()
	reg := taskfabric.NewRegistry()
	if err := RegisterBuiltinJobs(reg); err != nil {
		t.Fatal(err)
	}
	fab, err := taskfabric.NewFabric(reg, taskfabric.WithDomains(2), taskfabric.WithHeartbeat(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(fab, reg, WithTenants(testTenants...))
	if err != nil {
		fab.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		srv.Close()
		fab.Close()
	})
	r := &echoRig{srv: srv, post: newBufWriter(), get: newBufWriter()}
	body := []byte(`{"job":"echo","arg":"aGVsbG8="}`)
	for i := 1; i <= jobs; i++ {
		p := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body))
		p.Header.Set("X-API-Key", "key-bob")
		g := httptest.NewRequest(http.MethodGet, "/v1/jobs/j-"+strconv.Itoa(i)+"?wait=10s", nil)
		g.Header.Set("X-API-Key", "key-bob")
		r.posts, r.gets = append(r.posts, p), append(r.gets, g)
	}
	return r
}

// job runs the rig's next job and reports what went wrong, if anything.
func (r *echoRig) job() string {
	i := r.next
	r.next++
	r.post.reset()
	r.srv.ServeHTTP(r.post, r.posts[i])
	if r.post.code != http.StatusAccepted {
		return "POST answered " + string(r.post.body)
	}
	r.get.reset()
	r.srv.ServeHTTP(r.get, r.gets[i])
	if r.get.code != http.StatusOK || !bytes.Contains(r.get.body, []byte(`"result":"aGVsbG8="`)) {
		return "GET answered " + string(r.get.body)
	}
	return ""
}

// echoJobAllocsMax is the service's allocation budget per in-process
// echo job (POST and GET ?wait=), everything from the mux to the fabric
// and back included, the job's settled form too: 28 measured, the
// fabric's ticker and heartbeats amortized below one per job.
const echoJobAllocsMax = 28

// TestEchoJobAllocs pins what one small job costs the service in heap
// objects: POST /v1/jobs, dispatch, the fabric round trip, settle and a
// GET /v1/jobs/{id}?wait= that returns the result.
func TestEchoJobAllocs(t *testing.T) {
	const runs = 400
	r := newEchoRig(t, runs+1+20)
	for i := 0; i < 20; i++ { // warm pools and maps
		if msg := r.job(); msg != "" {
			t.Fatal(msg)
		}
	}
	var failed string
	allocs := testing.AllocsPerRun(runs, func() {
		if msg := r.job(); msg != "" && failed == "" {
			failed = msg
		}
	})
	if failed != "" {
		t.Fatal(failed)
	}
	t.Logf("%.1f objects per echo job", allocs)
	if raceEnabled {
		return
	}
	if allocs > echoJobAllocsMax {
		t.Errorf("an in-process echo job allocates %.1f objects, want <= %d", allocs, echoJobAllocsMax)
	}
}

// BenchmarkEchoJob times one in-process echo job (POST, then GET
// ?wait=); -benchmem counts the service's objects and bytes per job.
func BenchmarkEchoJob(b *testing.B) {
	r := newEchoRig(b, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if msg := r.job(); msg != "" {
			b.Fatal(msg)
		}
	}
}
