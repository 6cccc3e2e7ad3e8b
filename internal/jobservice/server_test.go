package jobservice

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"openmpmca/internal/core"
	"openmpmca/internal/mcapi"
	"openmpmca/internal/oerrors"
	"openmpmca/internal/offload"
	"openmpmca/internal/taskfabric"
)

// testEnv is one booted service: one fabric running jobs and regions +
// Server + httptest listener.
type testEnv struct {
	fab *taskfabric.Fabric
	srv *Server
	ts  *httptest.Server
}

// Standard test tenants: alice is a high-priority admin, bob normal,
// carol low with a tight quota.
var testTenants = []Tenant{
	{Name: "alice", Key: "key-alice", Quota: 64, Priority: PriorityHigh, Admin: true},
	{Name: "bob", Key: "key-bob", Quota: 32, Priority: PriorityNormal},
	{Name: "carol", Key: "key-carol", Quota: 2, Priority: PriorityLow},
}

// builtinRegistry holds the builtin jobs with the builtin kernels bound.
func builtinRegistry(t *testing.T) *taskfabric.Registry {
	t.Helper()
	jobs := taskfabric.NewRegistry()
	if err := RegisterBuiltinJobs(jobs); err != nil {
		t.Fatal(err)
	}
	kernels := offload.NewRegistry()
	if err := RegisterBuiltinKernels(kernels); err != nil {
		t.Fatal(err)
	}
	if err := jobs.RegisterKernels(kernels); err != nil {
		t.Fatal(err)
	}
	return jobs
}

// bootEnv boots a service over a fresh fabric of jobs, with the test
// tenants ahead of opts, and returns it with its shutdown.
func bootEnv(t *testing.T, jobs *taskfabric.Registry, fabOpts []taskfabric.Option, opts ...Option) (*testEnv, func()) {
	t.Helper()
	fab, err := taskfabric.NewFabric(jobs, fabOpts...)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(fab, jobs, append([]Option{WithTenants(testTenants...)}, opts...)...)
	if err != nil {
		fab.Close()
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	done := false
	shutdown := func() {
		if done {
			return
		}
		done = true
		ts.Close()
		srv.Close()
		fab.Close()
	}
	t.Cleanup(shutdown)
	return &testEnv{fab: fab, srv: srv, ts: ts}, shutdown
}

func newTestEnv(t *testing.T, opts ...Option) *testEnv {
	t.Helper()
	env, _ := bootEnv(t, builtinRegistry(t), []taskfabric.Option{
		taskfabric.WithDomains(3),
		taskfabric.WithHeartbeat(10 * time.Millisecond),
	}, opts...)
	return env
}

// do issues one request with the given API key and decodes the response
// envelope.
func (e *testEnv) do(t *testing.T, method, path, key string, body any) (int, apiResponse) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, e.ts.URL+path, rd)
	if err != nil {
		t.Fatal(err)
	}
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	resp, err := e.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env apiResponse
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil && err != io.EOF {
		t.Fatalf("%s %s: decode envelope: %v", method, path, err)
	}
	return resp.StatusCode, env
}

// meta re-marshals an envelope's metadata into out.
func meta(t *testing.T, env apiResponse, out any) {
	t.Helper()
	b, err := json.Marshal(env.Metadata)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, out); err != nil {
		t.Fatal(err)
	}
}

// submit posts one job and returns its accepted view.
func (e *testEnv) submit(t *testing.T, key string, req submitRequest) JobView {
	t.Helper()
	code, env := e.do(t, http.MethodPost, "/v1/jobs", key, req)
	if code != http.StatusAccepted {
		t.Fatalf("submit %+v: status %d (%s)", req, code, env.Error)
	}
	var v JobView
	meta(t, env, &v)
	return v
}

// wait long-polls a job until it settles.
func (e *testEnv) wait(t *testing.T, key, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, env := e.do(t, http.MethodGet, "/v1/jobs/"+id+"?wait=2s", key, nil)
		if code != http.StatusOK {
			t.Fatalf("wait %s: status %d (%s)", id, code, env.Error)
		}
		var v JobView
		meta(t, env, &v)
		switch v.Status {
		case StatusSucceeded, StatusFailed, StatusCanceled:
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still %s after 30s", id, v.Status)
		}
	}
}

func TestOptionValidation(t *testing.T) {
	jobs := taskfabric.NewRegistry()
	fab, err := taskfabric.NewFabric(jobs, taskfabric.WithDomains(2))
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	ok := Tenant{Name: "t", Key: "k", Quota: 1, Priority: PriorityNormal}
	cases := []struct {
		name string
		run  func() error
	}{
		{"nil fabric", func() error { _, err := New(nil, jobs, WithTenants(ok)); return err }},
		{"nil registry", func() error { _, err := New(fab, nil, WithTenants(ok)); return err }},
		{"no tenants", func() error { _, err := New(fab, jobs); return err }},
		{"empty tenant name", func() error {
			_, err := New(fab, jobs, WithTenants(Tenant{Key: "k", Quota: 1, Priority: PriorityNormal}))
			return err
		}},
		{"empty key", func() error {
			_, err := New(fab, jobs, WithTenants(Tenant{Name: "t", Quota: 1, Priority: PriorityNormal}))
			return err
		}},
		{"zero quota", func() error {
			_, err := New(fab, jobs, WithTenants(Tenant{Name: "t", Key: "k", Priority: PriorityNormal}))
			return err
		}},
		{"bad priority", func() error {
			_, err := New(fab, jobs, WithTenants(Tenant{Name: "t", Key: "k", Quota: 1, Priority: "turbo"}))
			return err
		}},
		{"dup name", func() error {
			_, err := New(fab, jobs, WithTenants(ok, Tenant{Name: "t", Key: "k2", Quota: 1, Priority: PriorityLow}))
			return err
		}},
		{"dup key", func() error {
			_, err := New(fab, jobs, WithTenants(ok, Tenant{Name: "u", Key: "k", Quota: 1, Priority: PriorityLow}))
			return err
		}},
		{"window zero", func() error { _, err := New(fab, jobs, WithTenants(ok), WithDispatchWindow(0)); return err }},
		{"window huge", func() error { _, err := New(fab, jobs, WithTenants(ok), WithDispatchWindow(5000)); return err }},
		{"retry-after", func() error { _, err := New(fab, jobs, WithTenants(ok), WithRetryAfter(0)); return err }},
		{"nil offloader", func() error { _, err := New(fab, jobs, WithTenants(ok), WithOffloader(nil, nil)); return err }},
	}
	for _, tc := range cases {
		if err := tc.run(); !errors.Is(err, core.ErrInvalidOption) {
			t.Errorf("%s: err = %v, want ErrInvalidOption", tc.name, err)
		}
	}
}

// TestEnvelopes pins the wire format: the sync envelope on /v1, error
// envelopes on 404s, 401 without a key, 405 on a method mismatch.
func TestEnvelopes(t *testing.T) {
	e := newTestEnv(t)

	code, env := e.do(t, http.MethodGet, "/v1", "", nil)
	if code != http.StatusOK || env.Type != "sync" || env.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1 = %d %+v", code, env)
	}
	var routes []string
	meta(t, env, &routes)
	want := []string{"/v1/domains", "/v1/groups", "/v1/health", "/v1/jobs", "/v1/ready", "/v1/stats"}
	if fmt.Sprint(routes) != fmt.Sprint(want) {
		t.Errorf("index routes = %v, want %v", routes, want)
	}

	code, env = e.do(t, http.MethodGet, "/nope", "", nil)
	if code != http.StatusNotFound || env.Type != "error" || env.ErrorCode != http.StatusNotFound {
		t.Errorf("GET /nope = %d %+v", code, env)
	}

	code, _ = e.do(t, http.MethodPost, "/v1/jobs", "", submitRequest{Job: JobEcho})
	if code != http.StatusUnauthorized {
		t.Errorf("unauthenticated submit = %d, want 401", code)
	}
	code, _ = e.do(t, http.MethodPost, "/v1/jobs", "key-wrong", submitRequest{Job: JobEcho})
	if code != http.StatusUnauthorized {
		t.Errorf("bad-key submit = %d, want 401", code)
	}

	resp, err := http.Get(e.ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Errorf("GET /v1/jobs without key = %d, want 401", resp.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodDelete, e.ts.URL+"/v1/jobs", nil)
	req.Header.Set("X-API-Key", "key-alice")
	resp, err = e.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("DELETE /v1/jobs = %d, want 405", resp.StatusCode)
	}

	code, env = e.do(t, http.MethodPost, "/v1/jobs", "key-bob", submitRequest{Job: "no-such-job"})
	if code != http.StatusNotFound {
		t.Errorf("unknown job = %d (%s), want 404", code, env.Error)
	}
	code, env = e.do(t, http.MethodGet, "/v1/jobs/j-999999", "key-bob", nil)
	if code != http.StatusNotFound {
		t.Errorf("unknown job id = %d (%s), want 404", code, env.Error)
	}
	code, env = e.do(t, http.MethodPost, "/v1/jobs", "key-bob", submitRequest{Job: JobEcho, Kind: "weird"})
	if code != http.StatusBadRequest {
		t.Errorf("bad kind = %d (%s), want 400", code, env.Error)
	}
	code, env = e.do(t, http.MethodPost, "/v1/jobs", "key-bob",
		submitRequest{Job: KernelVecSum, Kind: KindParallelFor})
	if code != http.StatusBadRequest {
		t.Errorf("parallel_for without n = %d (%s), want 400", code, env.Error)
	}

	// The submit body cap. The largest argument one task frame carries (an
	// MCAPI message's worth) is admitted and settles byte-exact; an
	// argument past the envelope slack is refused with 413 before
	// admission, leaving nothing accepted or in flight.
	for _, c := range []struct{ argLen, want int }{
		{mcapi.MaxMsgSize, http.StatusAccepted},
		{mcapi.MaxMsgSize + 8<<10, http.StatusRequestEntityTooLarge},
	} {
		arg := make([]byte, c.argLen)
		for i := range arg {
			arg[i] = byte(i * 31)
		}
		code, env = e.do(t, http.MethodPost, "/v1/jobs", "key-bob", submitRequest{Job: JobEcho, Arg: arg})
		if code != c.want {
			t.Fatalf("%d-byte argument = %d (%s), want %d", c.argLen, code, env.Error, c.want)
		}
		if code == http.StatusAccepted {
			var v JobView
			meta(t, env, &v)
			if got := e.wait(t, "key-bob", v.ID); got.Status != StatusSucceeded || !bytes.Equal(got.Result, arg) {
				t.Errorf("%d-byte echo: status %s, %d result bytes, want the argument back", c.argLen, got.Status, len(got.Result))
			}
			continue
		}
		if env.Type != "error" || env.ErrorCode != http.StatusRequestEntityTooLarge {
			t.Errorf("over-cap envelope = %+v", env)
		}
		_, env = e.do(t, http.MethodGet, "/v1/stats", "key-bob", nil)
		var snap Snapshot
		meta(t, env, &snap)
		if snap.Service.Accepted != 1 || snap.Service.Queued != 0 || snap.Service.Running != 0 {
			t.Errorf("after 413: service = %+v, want only the under-cap job accepted", snap.Service)
		}
		for _, ts := range snap.Service.Tenants {
			if ts.InFlight != 0 {
				t.Errorf("after 413: tenant %s has %d in flight, want 0", ts.Name, ts.InFlight)
			}
		}
		if snap.Errors == nil || snap.Errors.ByCode[oerrors.CodeBodyTooLarge] == 0 {
			t.Errorf("413 not counted as admission/%s: %+v", oerrors.CodeBodyTooLarge, snap.Errors)
		}
	}

	// The cap is on the whole body, read before decoding: trailing bytes
	// past it are refused whatever the prefix, a body shorter than its
	// Content-Length is malformed rather than too large, and a chunked
	// body (no Content-Length) is still read and admitted.
	post := func(body io.Reader) (int, apiResponse) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, e.ts.URL+"/v1/jobs", body)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-API-Key", "key-bob")
		resp, err := e.ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env apiResponse
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, env
	}
	valid := `{"job":"echo","arg":"aGk="}`
	for _, tail := range []string{" ", "x"} {
		body := valid + strings.Repeat(tail, maxSubmitBody)
		if code, env := post(strings.NewReader(body)); code != http.StatusRequestEntityTooLarge {
			t.Errorf("valid object + %d trailing %q = %d (%s), want 413", maxSubmitBody, tail, code, env.Error)
		}
	}
	short := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(valid))
	short.ContentLength = int64(len(valid) + 10)
	short.Header.Set("X-API-Key", "key-bob")
	rec := httptest.NewRecorder()
	e.srv.ServeHTTP(rec, short)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("body shorter than its Content-Length = %d (%s), want 400", rec.Code, rec.Body)
	}
	code, env = post(io.MultiReader(strings.NewReader(valid[:9]), strings.NewReader(valid[9:])))
	if code != http.StatusAccepted {
		t.Fatalf("chunked body = %d (%s), want 202", code, env.Error)
	}
	var chunked JobView
	meta(t, env, &chunked)
	if got := e.wait(t, "key-bob", chunked.ID); got.Status != StatusSucceeded || string(got.Result) != "hi" {
		t.Errorf("chunked echo = %+v, want hi", got)
	}

	// A region over the cap is refused at admission like n < 1: nothing
	// accepted, nothing in flight, the refusal counted.
	code, env = e.do(t, http.MethodPost, "/v1/jobs", "key-alice",
		submitRequest{Job: KernelVecSum, Kind: KindParallelFor, N: math.MaxInt})
	if code != http.StatusBadRequest {
		t.Fatalf("parallel_for with n = MaxInt = %d (%s), want 400", code, env.Error)
	}
	_, env = e.do(t, http.MethodGet, "/v1/stats", "key-alice", nil)
	var snap Snapshot
	meta(t, env, &snap)
	if snap.Service.Accepted != 2 || snap.Service.Queued != 0 || snap.Service.Running != 0 {
		t.Errorf("after n = MaxInt: service = %+v, want only the two echoes accepted", snap.Service)
	}
	for _, ts := range snap.Service.Tenants {
		if ts.InFlight != 0 || (ts.Name == "alice" && ts.Accepted != 0) {
			t.Errorf("after n = MaxInt: tenant %+v charged", ts)
		}
	}
	if snap.Errors == nil || snap.Errors.ByCode[oerrors.CodeRegionTooLarge] == 0 {
		t.Errorf("n over the cap not counted as admission/%s: %+v", oerrors.CodeRegionTooLarge, snap.Errors)
	}
}

// TestSubmitWaitExact drives each builtin end to end and asserts the
// exact expected payloads, including bearer-token auth and tenant
// isolation on job visibility.
func TestSubmitWaitExact(t *testing.T) {
	e := newTestEnv(t)

	v := e.submit(t, "key-bob", submitRequest{Job: JobSum, Arg: I64Pair(-5, 1000)})
	if v.Tenant != "bob" || v.Kind != KindTask || v.Status == "" {
		t.Fatalf("accepted view = %+v", v)
	}
	got := e.wait(t, "key-bob", v.ID)
	if got.Status != StatusSucceeded || !bytes.Equal(got.Result, SumExpected(-5, 1000)) {
		t.Errorf("sum = %+v, want succeeded %x", got, SumExpected(-5, 1000))
	}
	if got.StartedAt == nil || got.FinishedAt == nil {
		t.Errorf("settled job missing timestamps: %+v", got)
	}

	v = e.submit(t, "key-carol", submitRequest{Job: JobFib, Arg: U64(40)})
	if got = e.wait(t, "key-carol", v.ID); !bytes.Equal(got.Result, FibExpected(40)) {
		t.Errorf("fib(40) = %x, want %x", got.Result, FibExpected(40))
	}

	// Tenant isolation: bob cannot see carol's job.
	if code, _ := e.do(t, http.MethodGet, "/v1/jobs/"+v.ID, "key-bob", nil); code != http.StatusNotFound {
		t.Errorf("cross-tenant job get = %d, want 404", code)
	}

	// Bearer auth is equivalent to X-API-Key.
	req, _ := http.NewRequest(http.MethodGet, e.ts.URL+"/v1/jobs", nil)
	req.Header.Set("Authorization", "Bearer key-bob")
	resp, err := e.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("bearer list = %d, want 200", resp.StatusCode)
	}

	// parallel_for on the service's own fabric.
	v = e.submit(t, "key-alice", submitRequest{Job: KernelVecSum, Kind: KindParallelFor, N: 10000})
	if got = e.wait(t, "key-alice", v.ID); !bytes.Equal(got.Result, VecSumExpected(10000)) {
		t.Errorf("vecsum(10000) = %x, want %x", got.Result, VecSumExpected(10000))
	}
}

// TestQuota429 pins admission control: over-quota submits are refused
// with 429 + Retry-After and succeed again once capacity frees.
func TestQuota429(t *testing.T) {
	e := newTestEnv(t)

	// carol's quota is 2: two slow jobs fill it.
	a := e.submit(t, "key-carol", submitRequest{Job: JobSpin, Arg: U64(uint64(200 * time.Millisecond))})
	b := e.submit(t, "key-carol", submitRequest{Job: JobSpin, Arg: U64(uint64(200 * time.Millisecond))})

	code, env := e.do(t, http.MethodPost, "/v1/jobs", "key-carol", submitRequest{Job: JobEcho})
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit = %d (%s), want 429", code, env.Error)
	}
	req, _ := http.NewRequest(http.MethodPost, e.ts.URL+"/v1/jobs", strings.NewReader(`{"job":"echo"}`))
	req.Header.Set("X-API-Key", "key-carol")
	resp, err := e.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After header")
	}

	// Other tenants are unaffected by carol's saturation.
	v := e.submit(t, "key-bob", submitRequest{Job: JobEcho, Arg: []byte("hi")})
	if got := e.wait(t, "key-bob", v.ID); !bytes.Equal(got.Result, []byte("hi")) {
		t.Errorf("echo = %q", got.Result)
	}

	// Capacity frees, carol is welcome again.
	e.wait(t, "key-carol", a.ID)
	e.wait(t, "key-carol", b.ID)
	v = e.submit(t, "key-carol", submitRequest{Job: JobEcho})
	e.wait(t, "key-carol", v.ID)

	st := e.srv.ServiceStats()
	for _, ts := range st.Tenants {
		if ts.Name == "carol" && ts.Rejected < 2 {
			t.Errorf("carol rejected = %d, want >= 2", ts.Rejected)
		}
	}
}

// TestGroupStream pins the NDJSON stream: every member exactly once,
// then a drained event.
func TestGroupStream(t *testing.T) {
	e := newTestEnv(t)

	_, env := e.do(t, http.MethodPost, "/v1/groups", "key-alice", nil)
	var g GroupView
	meta(t, env, &g)

	const n = 8
	want := map[string][]byte{}
	for i := 0; i < n; i++ {
		v := e.submit(t, "key-alice", submitRequest{
			Job: JobFib, Arg: U64(uint64(20 + i)), Group: g.ID,
		})
		want[v.ID] = FibExpected(uint64(20 + i))
	}

	// A group belongs to its tenant.
	if code, _ := e.do(t, http.MethodGet, "/v1/groups/"+g.ID, "key-bob", nil); code != http.StatusNotFound {
		t.Errorf("cross-tenant group get = %d, want 404", code)
	}

	req, _ := http.NewRequest(http.MethodGet, e.ts.URL+"/v1/groups/"+g.ID+"/stream", nil)
	req.Header.Set("X-API-Key", "key-alice")
	resp, err := e.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d", resp.StatusCode)
	}
	seen := map[string]bool{}
	sc := bufio.NewScanner(resp.Body)
	drained := false
	for sc.Scan() {
		var ev streamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		switch ev.Type {
		case "job":
			if seen[ev.Job.ID] {
				t.Errorf("job %s streamed twice", ev.Job.ID)
			}
			seen[ev.Job.ID] = true
			exp, ok := want[ev.Job.ID]
			if !ok {
				t.Errorf("streamed unknown job %s", ev.Job.ID)
			} else if ev.Job.Status != StatusSucceeded || !bytes.Equal(ev.Job.Result, exp) {
				t.Errorf("job %s = %+v, want succeeded %x", ev.Job.ID, ev.Job, exp)
			}
		case "drained":
			drained = true
			if ev.Group.Pending != 0 || ev.Group.Members != n {
				t.Errorf("drained group = %+v", ev.Group)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !drained || len(seen) != n {
		t.Errorf("stream delivered %d/%d members, drained=%v", len(seen), n, drained)
	}
}

// TestGroupCancel submits more slow jobs than the dispatch window holds
// and cancels the group: queued members settle canceled, running ones
// finish, and the stream still drains completely.
func TestGroupCancel(t *testing.T) {
	e := newTestEnv(t, WithDispatchWindow(2))

	_, env := e.do(t, http.MethodPost, "/v1/groups", "key-alice", nil)
	var g GroupView
	meta(t, env, &g)

	const n = 10
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		v := e.submit(t, "key-alice", submitRequest{
			Job: JobSpin, Arg: U64(uint64(100 * time.Millisecond)), Group: g.ID,
		})
		ids = append(ids, v.ID)
	}
	code, env := e.do(t, http.MethodPost, "/v1/groups/"+g.ID+"/cancel", "key-alice", nil)
	if code != http.StatusOK {
		t.Fatalf("cancel = %d (%s)", code, env.Error)
	}
	var canceled, finished int
	for _, id := range ids {
		switch v := e.wait(t, "key-alice", id); v.Status {
		case StatusCanceled:
			canceled++
		case StatusSucceeded:
			finished++
		default:
			t.Errorf("job %s = %+v", id, v)
		}
	}
	if canceled == 0 {
		t.Error("cancel with full window canceled no queued jobs")
	}
	if canceled+finished != n {
		t.Errorf("canceled %d + finished %d != %d", canceled, finished, n)
	}
}

// TestDomainsDrainReadmit pins the admin surface: listing, role
// enforcement, drain through the loss path, accepted work completing
// exactly, then readmission.
func TestDomainsDrainReadmit(t *testing.T) {
	e := newTestEnv(t)

	var doms DomainsView
	_, env := e.do(t, http.MethodGet, "/v1/domains", "key-bob", nil)
	meta(t, env, &doms)
	if len(doms.Fabric) != 3 || doms.Offload != nil {
		t.Fatalf("domains = %d fabric, %d offload; want 3, none", len(doms.Fabric), len(doms.Offload))
	}
	for _, d := range doms.Fabric {
		if !d.Live {
			t.Errorf("domain %d not live at boot", d.ID)
		}
	}

	// Drain requires the admin role.
	if code, _ := e.do(t, http.MethodPost, "/v1/domains/1/drain", "key-bob", nil); code != http.StatusForbidden {
		t.Errorf("non-admin drain = %d, want 403", code)
	}
	if code, _ := e.do(t, http.MethodPost, "/v1/domains/99/drain", "key-alice", nil); code != http.StatusNotFound {
		t.Errorf("drain bad id = %d, want 404", code)
	}
	if code, _ := e.do(t, http.MethodPost, "/v1/domains/x/drain", "key-alice", nil); code != http.StatusBadRequest {
		t.Errorf("drain non-numeric id = %d, want 400", code)
	}

	if code, env := e.do(t, http.MethodPost, "/v1/domains/1/drain", "key-alice", nil); code != http.StatusOK {
		t.Fatalf("drain = %d (%s)", code, env.Error)
	}
	// The health monitor must declare the loss before readmission is
	// possible.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, env = e.do(t, http.MethodGet, "/v1/domains", "key-alice", nil)
		meta(t, env, &doms)
		if !doms.Fabric[1].Live {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("domain 1 still live 10s after drain")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Drain-then-submit: the degraded fleet still serves exactly.
	v := e.submit(t, "key-bob", submitRequest{Job: JobSum, Arg: I64Pair(0, 5000)})
	if got := e.wait(t, "key-bob", v.ID); !bytes.Equal(got.Result, SumExpected(0, 5000)) {
		t.Errorf("degraded sum = %+v, want %x", got, SumExpected(0, 5000))
	}

	if code, env := e.do(t, http.MethodPost, "/v1/domains/1/readmit", "key-alice", nil); code != http.StatusOK {
		t.Fatalf("readmit = %d (%s)", code, env.Error)
	}
	if code, _ := e.do(t, http.MethodPost, "/v1/domains/1/readmit", "key-alice", nil); code != http.StatusConflict {
		t.Errorf("double readmit = %d, want 409", code)
	}
	_, env = e.do(t, http.MethodGet, "/v1/domains", "key-alice", nil)
	meta(t, env, &doms)
	if !doms.Fabric[1].Live {
		t.Error("domain 1 not live after readmit")
	}
}

// TestKillMidJob pins the availability contract under fault injection:
// a domain drained while slow jobs are in flight must not cost a single
// accepted job its exact result.
func TestKillMidJob(t *testing.T) {
	e := newTestEnv(t)

	const n = 12
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		v := e.submit(t, "key-alice", submitRequest{Job: JobSpin, Arg: U64(uint64(60 * time.Millisecond))})
		ids = append(ids, v.ID)
	}
	// Block until every job's task is on a domain, so the drain finds
	// domain 0 holding work.
	for _, id := range ids {
		e.srv.mu.Lock()
		l := e.srv.jobs[id].events
		e.srv.mu.Unlock()
		for seq, sent := 0, false; !sent; {
			evs, done, pulse := l.since(seq)
			for _, ev := range evs {
				sent = sent || ev.Type == EventTaskSent
				seq = ev.Seq + 1
			}
			if done && !sent {
				t.Fatalf("job %s settled before its task was sent", id)
			}
			if !sent {
				<-pulse
			}
		}
	}
	if code, env := e.do(t, http.MethodPost, "/v1/domains/0/drain", "key-alice", nil); code != http.StatusOK {
		t.Fatalf("drain = %d (%s)", code, env.Error)
	}
	recovered := 0
	for _, id := range ids {
		v := e.wait(t, "key-alice", id)
		if v.Status != StatusSucceeded {
			t.Errorf("job %s = %+v, want succeeded despite domain loss", id, v)
			continue
		}
		if !bytes.Equal(v.Result, U64(uint64(60*time.Millisecond))) {
			t.Errorf("job %s result = %x", id, v.Result)
		}
		if v.Recovered {
			recovered++
		}
	}
	t.Logf("killed domain 0 mid-run: %d/%d jobs recovered", recovered, n)

	st := e.srv.ServiceStats()
	if st.Completed != uint64(n) || st.Failed != 0 {
		t.Errorf("service stats = %+v, want %d completed, 0 failed", st, n)
	}
	if uint64(recovered) != st.Recovered {
		t.Errorf("recovered views %d != stat %d", recovered, st.Recovered)
	}
}

// TestStatsSnapshot pins the unified Snapshot umbrella on /v1/stats:
// every layer's section present and the service counters consistent.
func TestStatsSnapshot(t *testing.T) {
	e := newTestEnv(t)

	v := e.submit(t, "key-bob", submitRequest{Job: JobSum, Arg: I64Pair(0, 100)})
	e.wait(t, "key-bob", v.ID)
	v = e.submit(t, "key-bob", submitRequest{Job: KernelVecSum, Kind: KindParallelFor, N: 500})
	e.wait(t, "key-bob", v.ID)

	code, env := e.do(t, http.MethodGet, "/v1/stats", "key-bob", nil)
	if code != http.StatusOK {
		t.Fatalf("stats = %d (%s)", code, env.Error)
	}
	var snap Snapshot
	meta(t, env, &snap)
	if snap.Core == nil || snap.Fabric == nil || snap.Offload == nil || snap.Service == nil {
		t.Fatalf("snapshot sections missing: %+v", snap)
	}
	if snap.Service.Accepted != 2 || snap.Service.Completed != 2 {
		t.Errorf("service = %+v, want 2 accepted, 2 completed", snap.Service)
	}
	if snap.Fabric.Submitted < 1 {
		t.Errorf("fabric submitted = %d, want >= 1", snap.Fabric.Submitted)
	}
	if snap.Offload.Regions < 1 {
		t.Errorf("offload regions = %d, want >= 1", snap.Offload.Regions)
	}
	if len(snap.Service.Tenants) != 3 {
		t.Errorf("tenant stats = %d entries, want 3", len(snap.Service.Tenants))
	}

	// The raw JSON must carry the section keys (the stable wire names).
	b, err := json.Marshal(env.Metadata)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"core"`, `"offload"`, `"fabric"`, `"service"`, `"tenants"`} {
		if !bytes.Contains(b, []byte(key)) {
			t.Errorf("stats JSON missing %s: %s", key, b)
		}
	}
}

// TestConcurrentTenants is the -race soak: 16 tenants × concurrent
// submitters hammering the service with tight quotas, retrying on 429,
// every accepted job asserting its exact expected result. Each tenant
// has more submitters than its quota, released together, so every
// tenant is refused at least once and the retry path runs.
func TestConcurrentTenants(t *testing.T) {
	jobs := taskfabric.NewRegistry()
	if err := RegisterBuiltinJobs(jobs); err != nil {
		t.Fatal(err)
	}
	fab, err := taskfabric.NewFabric(jobs,
		taskfabric.WithDomains(3),
		taskfabric.WithHeartbeat(10*time.Millisecond),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()

	const nt = 16
	tenants := make([]Tenant, 0, nt)
	prios := []Priority{PriorityHigh, PriorityNormal, PriorityLow}
	for i := 0; i < nt; i++ {
		tenants = append(tenants, Tenant{
			Name:     fmt.Sprintf("t%02d", i),
			Key:      fmt.Sprintf("key-t%02d", i),
			Quota:    4,
			Priority: prios[i%len(prios)],
		})
	}
	srv, err := New(fab, jobs, WithTenants(tenants...), WithDispatchWindow(32))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const subsPerTenant = 8
	const jobsPerSub = 3
	var wg sync.WaitGroup
	errCh := make(chan error, nt*subsPerTenant)
	start := make(chan struct{})
	for ti := 0; ti < nt; ti++ {
		for si := 0; si < subsPerTenant; si++ {
			wg.Add(1)
			go func(ti, si int) {
				defer wg.Done()
				<-start
				rng := rand.New(rand.NewSource(int64(ti*100 + si)))
				key := fmt.Sprintf("key-t%02d", ti)
				client := ts.Client()
				for k := 0; k < jobsPerSub; k++ {
					n := uint64(10 + rng.Intn(30))
					sub, want := submitRequest{Job: JobFib, Arg: U64(n)}, FibExpected(n)
					if k == 0 {
						// Every submitter opens with a spin, so a tenant's
						// first four accepts hold its quota while the rest
						// of the released burst arrives.
						sub = submitRequest{Job: JobSpin, Arg: U64(uint64(50 * time.Millisecond))}
						want = sub.Arg
					}
					body, _ := json.Marshal(sub)
					var id string
					for {
						req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", bytes.NewReader(body))
						req.Header.Set("X-API-Key", key)
						resp, err := client.Do(req)
						if err != nil {
							errCh <- err
							return
						}
						var env apiResponse
						derr := json.NewDecoder(resp.Body).Decode(&env)
						resp.Body.Close()
						if resp.StatusCode == http.StatusTooManyRequests {
							time.Sleep(time.Duration(1+rng.Intn(10)) * time.Millisecond)
							continue
						}
						if derr != nil || resp.StatusCode != http.StatusAccepted {
							errCh <- fmt.Errorf("submit: status %d, decode %v", resp.StatusCode, derr)
							return
						}
						var v JobView
						b, _ := json.Marshal(env.Metadata)
						if err := json.Unmarshal(b, &v); err != nil {
							errCh <- err
							return
						}
						id = v.ID
						break
					}
					for {
						req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+id+"?wait=2s", nil)
						req.Header.Set("X-API-Key", key)
						resp, err := client.Do(req)
						if err != nil {
							errCh <- err
							return
						}
						var env apiResponse
						derr := json.NewDecoder(resp.Body).Decode(&env)
						resp.Body.Close()
						if derr != nil {
							errCh <- derr
							return
						}
						var v JobView
						b, _ := json.Marshal(env.Metadata)
						if err := json.Unmarshal(b, &v); err != nil {
							errCh <- err
							return
						}
						if v.Status == StatusSucceeded {
							if !bytes.Equal(v.Result, want) {
								errCh <- fmt.Errorf("job %s: %s(%x) = %x, want %x", id, sub.Job, sub.Arg, v.Result, want)
							}
							break
						}
						if v.Status == StatusFailed || v.Status == StatusCanceled {
							errCh <- fmt.Errorf("job %s settled %s: %s", id, v.Status, v.Error)
							break
						}
					}
				}
			}(ti, si)
		}
	}
	close(start)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	st := srv.ServiceStats()
	wantJobs := uint64(nt * subsPerTenant * jobsPerSub)
	if st.Completed != wantJobs || st.Failed != 0 {
		t.Errorf("service stats = %+v, want %d completed, 0 failed", st, wantJobs)
	}
	if st.Accepted != wantJobs {
		t.Errorf("accepted = %d, want %d", st.Accepted, wantJobs)
	}
	for _, tn := range st.Tenants {
		if tn.Rejected == 0 {
			t.Errorf("tenant %s: no 429 with %d submitters against quota %d", tn.Name, subsPerTenant, tn.Quota)
		}
	}
}

// TestCloseSettlesQueued pins shutdown: queued jobs settle canceled,
// nothing wedges, Close is idempotent.
func TestCloseSettlesQueued(t *testing.T) {
	jobs := taskfabric.NewRegistry()
	if err := RegisterBuiltinJobs(jobs); err != nil {
		t.Fatal(err)
	}
	fab, err := taskfabric.NewFabric(jobs, taskfabric.WithDomains(2))
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Close()
	srv, err := New(fab, jobs,
		WithTenants(Tenant{Name: "t", Key: "k", Quota: 32, Priority: PriorityNormal}),
		WithDispatchWindow(1))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	e := &testEnv{fab: fab, srv: srv, ts: ts}

	ids := make([]string, 0, 6)
	for i := 0; i < 6; i++ {
		v := e.submit(t, "k", submitRequest{Job: JobSpin, Arg: U64(uint64(50 * time.Millisecond))})
		ids = append(ids, v.ID)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	var canceled, done int
	for _, id := range ids {
		srv.mu.Lock()
		j := srv.jobs[id]
		srv.mu.Unlock()
		<-j.done
		j.mu.Lock()
		switch j.status {
		case StatusCanceled:
			canceled++
		case StatusSucceeded:
			done++
		default:
			t.Errorf("job %s status %s after Close", id, j.status)
		}
		j.mu.Unlock()
	}
	if canceled == 0 {
		t.Error("Close canceled no queued jobs")
	}
	if canceled+done != len(ids) {
		t.Errorf("canceled %d + done %d != %d", canceled, done, len(ids))
	}
}
