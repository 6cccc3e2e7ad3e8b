package jobservice

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"openmpmca/internal/durable"
	"openmpmca/internal/taskfabric"
)

// newDurableEnv boots a full service like newTestEnv but returns an
// explicit shutdown func instead of only registering cleanups, so
// restart tests can tear the first life down before booting the second.
func newDurableEnv(t *testing.T, opts ...Option) (*testEnv, func()) {
	t.Helper()
	return bootEnv(t, builtinRegistry(t), []taskfabric.Option{
		taskfabric.WithDomains(2),
		taskfabric.WithHeartbeat(10 * time.Millisecond),
	}, opts...)
}

// TestDurableRestartPreservesSettled settles a batch of jobs against a
// state dir, restarts the service over the same dir, and checks every
// job is still queryable with the view it had before: status,
// byte-exact result, recovered flag and all three timestamps — no
// re-execution, no loss.
func TestDurableRestartPreservesSettled(t *testing.T) {
	dir := t.TempDir()
	env1, shutdown1 := newDurableEnv(t, WithStateDir(dir, durable.WithFsync(false)))

	type want struct {
		id     string
		result []byte
	}
	var wants []want
	wants = append(wants, want{
		env1.submit(t, "key-alice", submitRequest{Job: JobSum, Arg: I64Pair(0, 1000)}).ID,
		SumExpected(0, 1000),
	})
	wants = append(wants, want{
		env1.submit(t, "key-alice", submitRequest{Job: JobFib, Arg: U64(40)}).ID,
		FibExpected(40),
	})
	wants = append(wants, want{
		env1.submit(t, "key-bob", submitRequest{Job: JobEcho, Arg: []byte("persist me")}).ID,
		[]byte("persist me"),
	})
	wants = append(wants, want{
		env1.submit(t, "key-bob", submitRequest{Job: KernelVecSum, Kind: KindParallelFor, N: 500}).ID,
		VecSumExpected(500),
	})
	// Wait under the owning key.
	var before []JobView
	for i, wt := range wants {
		key := "key-alice"
		if i >= 2 {
			key = "key-bob"
		}
		v := env1.wait(t, key, wt.id)
		if v.Status != StatusSucceeded || !bytes.Equal(v.Result, wt.result) || v.StartedAt == nil {
			t.Fatalf("first life: job %s = %+v", wt.id, v)
		}
		before = append(before, v)
	}
	shutdown1()

	// Second life over the same state dir.
	env2, _ := newDurableEnv(t, WithStateDir(dir, durable.WithFsync(false)))
	for i, wt := range wants {
		key := "key-alice"
		if i >= 2 {
			key = "key-bob"
		}
		code, envl := env2.do(t, http.MethodGet, "/v1/jobs/"+wt.id, key, nil)
		if code != http.StatusOK {
			t.Fatalf("restart lost job %s: status %d (%s)", wt.id, code, envl.Error)
		}
		var v JobView
		meta(t, envl, &v)
		if v.Status != StatusSucceeded {
			t.Fatalf("restart: job %s status %q", wt.id, v.Status)
		}
		if !bytes.Equal(v.Result, wt.result) {
			t.Fatalf("restart: job %s result %x, want %x", wt.id, v.Result, wt.result)
		}
		got, _ := json.Marshal(v)
		was, _ := json.Marshal(before[i])
		if !bytes.Equal(got, was) {
			t.Fatalf("restart changed job %s:\n got %s\nwant %s", wt.id, got, was)
		}
	}
	// Settled jobs must not have been re-enqueued.
	if st := env2.srv.ServiceStats(); st.Replayed != 0 {
		t.Fatalf("settled-only restart re-enqueued %d jobs", st.Replayed)
	}
	// Fresh ids must not collide with replayed ones.
	nv := env2.submit(t, "key-alice", submitRequest{Job: JobEcho, Arg: []byte("new")})
	for _, wt := range wants {
		if nv.ID == wt.id {
			t.Fatalf("job id %s reused after restart", nv.ID)
		}
	}
	// The durable section must be live in the snapshot.
	snap := env2.srv.Snapshot()
	if snap.Durable == nil || snap.Durable.ReplayedJobs < len(wants) {
		t.Fatalf("durable stats missing or short: %+v", snap.Durable)
	}
}

// TestDurableRestartEventsFromJournal restarts over a settled job and
// follows its event stream: the replayed accepted and settled events
// carry the journaled submit and finish times, not the time of the
// reopen.
func TestDurableRestartEventsFromJournal(t *testing.T) {
	dir := t.TempDir()
	env1, shutdown1 := newDurableEnv(t, WithStateDir(dir, durable.WithFsync(false)))
	id := env1.submit(t, "key-alice", submitRequest{Job: JobEcho, Arg: []byte("when")}).ID
	v := env1.wait(t, "key-alice", id)
	shutdown1()

	env2, _ := newDurableEnv(t, WithStateDir(dir, durable.WithFsync(false)))
	evs := readEvents(t, env2, "key-alice", id)
	if len(evs) != 2 || evs[0].Type != EventAccepted || evs[1].Type != EventSettled {
		t.Fatalf("replayed events = %+v, want accepted then settled", evs)
	}
	if at, want := evs[0].AtNs, v.SubmittedAt.UnixNano(); at != want {
		t.Fatalf("replayed accepted event at %d, want the submit time %d", at, want)
	}
	if at, want := evs[1].AtNs, v.FinishedAt.UnixNano(); at != want {
		t.Fatalf("replayed settled event at %d, want the finish time %d", at, want)
	}
}

// settledStore opens a store in a fresh dir holding jobs settled,
// ungrouped echo jobs j-1..j-jobs of tenant alice.
func settledStore(t *testing.T, jobs int) *durable.Store {
	t.Helper()
	st, err := durable.Open(t.TempDir(), durable.WithFsync(false))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	for i := 1; i <= jobs; i++ {
		id := "j-" + strconv.Itoa(i)
		for _, e := range []durable.Entry{
			{Op: durable.OpAccept, ID: id, At: int64(3 * i), Tenant: "alice", Kind: KindTask, Name: JobEcho, Arg: []byte("x")},
			{Op: durable.OpDispatch, ID: id, At: int64(3*i + 1)},
			{Op: durable.OpSettle, ID: id, At: int64(3*i + 2), Status: durable.StatusSucceeded, Result: []byte("x")},
		} {
			if err := st.Append(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	return st
}

// TestRecoverFromStoreAllocs pins what replaying a settled, ungrouped
// job costs the service: its ID on its tenant's list and its store's
// JobState in the settled table, nothing of its own. A lookup builds
// nothing either: every lookup finds the store's JobState.
func TestRecoverFromStoreAllocs(t *testing.T) {
	const jobs = 1000
	st := settledStore(t, jobs)
	alice := &tenantState{Tenant: testTenants[0]}
	s := &Server{
		cfg:    config{store: st},
		byName: map[string]*tenantState{"alice": alice},
		jobs:   make(map[string]*jobRec),
		groups: make(map[string]*groupRec),
	}
	allocs := testing.AllocsPerRun(10, func() {
		alice.jobs = alice.jobs[:0]
		s.recoverFromStore()
	})
	if len(s.jobs) != 0 {
		t.Fatalf("replay built %d records for settled, ungrouped jobs, want 0", len(s.jobs))
	}
	settled := len(s.settled.byID)
	for _, js := range s.settled.bySeq {
		if js != nil {
			settled++
		}
	}
	if settled != jobs || len(alice.jobs) != jobs {
		t.Fatalf("replay left %d settled jobs and %d listed, want %d of each", settled, len(alice.jobs), jobs)
	}
	if perJob := allocs / jobs; perJob > 0.01 {
		t.Fatalf("recoverFromStore allocates %.3f objects per settled job, want <= 0.01", perJob)
	}

	var sj settledJob
	lookups := testing.AllocsPerRun(100, func() {
		s.mu.Lock()
		sj = s.findLocked("j-7", alice).sj
		s.mu.Unlock()
	})
	if lookups != 0 || len(s.jobs) != 0 || sj.JobState != st.Recovered().Jobs["j-7"] {
		t.Fatalf("a lookup of j-7 allocates %.0f objects and leaves %d records, want 0 and the store's JobState", lookups, len(s.jobs))
	}
	if v := jobViewOf(sj.JobState); v.ID != "j-7" || v.Status != StatusSucceeded || string(v.Result) != "x" ||
		v.SubmittedAt.UnixNano() != 21 || v.FinishedAt.UnixNano() != 23 {
		t.Fatalf("j-7 found as %+v", v)
	}
	for _, id := range []string{"j-07", "j-0", "j-1001", "j-", "7"} {
		s.mu.Lock()
		got := s.findLocked(id, alice)
		s.mu.Unlock()
		if got.found() {
			t.Errorf("lookup of %q found a job", id)
		}
	}
}

// TestListLeavesColdJobsCold: one job list after a restart renders each
// cold job from its JobState and builds no record, and each entry is
// the view a GET of that job answers.
func TestListLeavesColdJobsCold(t *testing.T) {
	const jobs = 500
	st := settledStore(t, jobs)
	dir := st.Dir()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	env, _ := newDurableEnv(t, WithStateDir(dir, durable.WithFsync(false)))
	code, body, err := httpGet(env, "key-alice", "/v1/jobs")
	if err != nil || code != http.StatusOK {
		t.Fatalf("list: HTTP %d (%v): %s", code, err, body)
	}
	env.srv.mu.Lock()
	built := len(env.srv.jobs)
	env.srv.mu.Unlock()
	if built != 0 {
		t.Fatalf("one list after a restart built %d records, want 0", built)
	}
	var list struct{ Metadata []json.RawMessage }
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Metadata) != jobs {
		t.Fatalf("list holds %d jobs, want %d", len(list.Metadata), jobs)
	}
	for _, k := range []int{0, jobs / 2, jobs - 1} {
		id := "j-" + strconv.Itoa(k+1)
		_, one, err := httpGet(env, "key-alice", "/v1/jobs/"+id)
		var view struct{ Metadata json.RawMessage }
		if err == nil {
			err = json.Unmarshal(one, &view)
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(list.Metadata[k], view.Metadata) {
			t.Fatalf("list entry %d\n%s\nGET %s\n%s", k, list.Metadata[k], id, view.Metadata)
		}
	}
}

// httpGet issues one GET under key and returns the status and body; safe
// off the test goroutine.
func httpGet(env *testEnv, key, path string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, env.ts.URL+path, nil)
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("X-API-Key", key)
	resp, err := env.ts.Client().Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// TestColdJobBuiltOnce races GETs, lists and event streams of one
// replayed, settled job against direct lookups: every lookup finds the
// store's JobState, every answer is the same, and no record is built
// for it or for any other job. Run it under -race.
func TestColdJobBuiltOnce(t *testing.T) {
	dir := t.TempDir()
	st, err := durable.Open(dir, durable.WithFsync(false))
	if err != nil {
		t.Fatal(err)
	}
	for i, tenant := range []string{"bob", "alice", "alice"} {
		id := "j-" + strconv.Itoa(i+1)
		for _, e := range []durable.Entry{
			{Op: durable.OpAccept, ID: id, Tenant: tenant, Kind: KindTask, Name: JobEcho, Arg: []byte(id)},
			{Op: durable.OpSettle, ID: id, Status: durable.StatusSucceeded, Result: []byte(id)},
		} {
			if err := st.Append(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	env, _ := newDurableEnv(t, WithStateDir(dir, durable.WithFsync(false)))
	if code, _, err := httpGet(env, "key-alice", "/v1/jobs/j-1"); err != nil || code != http.StatusNotFound {
		t.Fatalf("alice's GET of bob's j-1 = %d (%v), want 404", code, err)
	}

	paths := []string{"/v1/jobs/j-1", "/v1/jobs/j-1?wait=1s", "/v1/jobs", "/v1/jobs/j-1/events"}
	const rounds = 8
	bodies := make([][]byte, len(paths)*rounds)
	errs := make([]error, len(paths)*rounds)
	found := make([]*durable.JobState, rounds)
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		for p, path := range paths {
			wg.Add(1)
			go func(k int, path string) {
				defer wg.Done()
				code, body, err := httpGet(env, "key-bob", path)
				if err == nil && code != http.StatusOK {
					err = fmt.Errorf("GET %s: HTTP %d: %s", path, code, body)
				}
				bodies[k], errs[k] = body, err
			}(r*len(paths)+p, path)
		}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			env.srv.mu.Lock()
			found[r] = env.srv.findLocked("j-1", env.srv.byName["bob"]).sj.JobState
			env.srv.mu.Unlock()
		}(r)
	}
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
		if first := bodies[k%len(paths)]; !bytes.Equal(bodies[k], first) {
			t.Fatalf("GET %s answered\n%s\nand\n%s", paths[k%len(paths)], bodies[k], first)
		}
	}
	stored := env.srv.cfg.store.Recovered().Jobs["j-1"]
	for _, js := range found {
		if js == nil || js != stored {
			t.Fatalf("a lookup of j-1 found %p, want the store's JobState %p", js, stored)
		}
	}
	env.srv.mu.Lock()
	defer env.srv.mu.Unlock()
	if len(env.srv.jobs) != 0 {
		t.Fatalf("bob's reads built %d records, want 0", len(env.srv.jobs))
	}
}

// viewOf decodes the job view a GET /v1/jobs/{id} answered.
func viewOf(t *testing.T, body string) JobView {
	t.Helper()
	var env apiResponse
	var v JobView
	if err := json.Unmarshal([]byte(body), &env); err != nil {
		t.Fatal(err)
	}
	meta(t, env, &v)
	return v
}

// lifeReads is what one service life serves about its jobs: each job's
// view and event log, and each tenant's list, as the bytes sent.
type lifeReads struct {
	views, events map[string]string
	lists         map[string]string
}

// readLife reads every job of ids (owner key per id) and every tenant's
// list. order picks which path touches the jobs first: "events", "get"
// or "list".
func readLife(t *testing.T, env *testEnv, ids []string, owner map[string]string, order string) lifeReads {
	t.Helper()
	got := lifeReads{views: map[string]string{}, events: map[string]string{}, lists: map[string]string{}}
	get := func(key, path string) string {
		t.Helper()
		code, body, err := httpGet(env, key, path)
		if err != nil || code != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d (%v): %s", path, code, err, body)
		}
		return string(body)
	}
	lists := func() {
		for _, key := range []string{"key-alice", "key-bob"} {
			got.lists[key] = get(key, "/v1/jobs")
		}
	}
	if order == "list" {
		lists()
	}
	for k, id := range ids {
		if order == "events" || (order == "get" && k%2 == 1) {
			got.events[id] = get(owner[id], "/v1/jobs/"+id+"/events")
			got.views[id] = get(owner[id], "/v1/jobs/"+id)
		} else {
			got.views[id] = get(owner[id], "/v1/jobs/"+id)
			got.events[id] = get(owner[id], "/v1/jobs/"+id+"/events")
		}
	}
	if order != "list" {
		lists()
	}
	return got
}

// TestRestartServesWhatWasServed restarts a service over settled jobs
// of every shape (succeeded, failed, canceled, recovered, a region,
// grouped members, members of a group the journal has no record of,
// an ID the service would not issue) three times, touching the jobs
// first through a different path each life, and settles one more job
// live in each life. A job serves, in every later read, the view it was
// first served once settled: the first life's for the seeded jobs and
// the jobs settled there, the settling life's for a job settled live
// later. Each list is the bytes writeSync sends for its read's views,
// and every replayed job's event log is its journaled accepted and
// settled pair.
func TestRestartServesWhatWasServed(t *testing.T) {
	dir := t.TempDir()
	st, err := durable.Open(dir, durable.WithFsync(false))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []durable.Entry{
		{Op: durable.OpAccept, ID: "j-1", At: 10, Tenant: "alice", Kind: KindTask, Name: JobEcho, Arg: []byte("f")},
		{Op: durable.OpDispatch, ID: "j-1", At: 11},
		{Op: durable.OpSettle, ID: "j-1", At: 12, Status: durable.StatusFailed, Error: "boom"},
		{Op: durable.OpAccept, ID: "j-2", At: 20, Tenant: "bob", Kind: KindTask, Name: JobEcho, Arg: []byte("c")},
		{Op: durable.OpSettle, ID: "j-2", At: 22, Status: durable.StatusCanceled},
		{Op: durable.OpAccept, ID: "j-3", At: 30, Tenant: "alice", Kind: KindTask, Name: JobEcho, Arg: []byte("r")},
		{Op: durable.OpSettle, ID: "j-3", At: 32, Status: durable.StatusSucceeded, Result: []byte("r"), Recovered: true},
		{Op: durable.OpAccept, ID: "legacy-1", At: 40, Tenant: "bob", Kind: KindTask, Name: JobEcho, Arg: []byte("l")},
		{Op: durable.OpSettle, ID: "legacy-1", At: 42, Status: durable.StatusSucceeded, Result: []byte("l")},
		// Members of a group with no record: one settled, one still
		// queued, which the first life re-executes.
		{Op: durable.OpAccept, ID: "j-4", At: 50, Tenant: "alice", Kind: KindTask, Name: JobEcho, Arg: []byte("g"), Group: "g-9"},
		{Op: durable.OpSettle, ID: "j-4", At: 52, Status: durable.StatusSucceeded, Result: []byte("g")},
		{Op: durable.OpAccept, ID: "j-5", At: 60, Tenant: "alice", Kind: KindTask, Name: JobEcho, Arg: []byte("q"), Group: "g-9"},
	} {
		if err := st.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	env1, shutdown1 := newDurableEnv(t, WithStateDir(dir, durable.WithFsync(false)))
	ids := []string{"j-1", "j-2", "j-3", "legacy-1", "j-4", "j-5"}
	owner := map[string]string{"j-1": "key-alice", "j-2": "key-bob", "j-3": "key-alice", "legacy-1": "key-bob",
		"j-4": "key-alice", "j-5": "key-alice"}
	env1.wait(t, "key-alice", "j-5")
	code, genv := env1.do(t, http.MethodPost, "/v1/groups", "key-alice", nil)
	if code != http.StatusCreated {
		t.Fatalf("group create: %d", code)
	}
	var gv GroupView
	meta(t, genv, &gv)
	for _, sub := range []struct {
		key string
		req submitRequest
	}{
		{"key-alice", submitRequest{Job: JobSum, Arg: I64Pair(0, 1000)}},
		{"key-bob", submitRequest{Job: JobFib, Arg: U64(40)}},
		{"key-alice", submitRequest{Job: KernelVecSum, Kind: KindParallelFor, N: 300}},
		{"key-alice", submitRequest{Job: JobEcho, Arg: []byte("m1"), Group: gv.ID}},
		{"key-alice", submitRequest{Job: JobEcho, Arg: []byte("m2"), Group: gv.ID}},
		{"key-bob", submitRequest{Job: JobEcho, Arg: []byte("b")}},
	} {
		id := env1.submit(t, sub.key, sub.req).ID
		env1.wait(t, sub.key, id)
		ids = append(ids, id)
		owner[id] = sub.key
	}
	first := readLife(t, env1, ids, owner, "get")
	shutdown1()
	checkLists(t, "life 1", first, ids, owner)
	// The seeded jobs were replayed in the first life already: hold
	// their views to the journal.
	for id, want := range map[string]JobView{
		"j-1":      {Status: StatusFailed, Error: "boom"},
		"j-2":      {Status: StatusCanceled},
		"j-3":      {Status: StatusSucceeded, Result: []byte("r"), Recovered: true},
		"legacy-1": {Status: StatusSucceeded, Result: []byte("l")},
		"j-4":      {Status: StatusSucceeded, Result: []byte("g")},
		"j-5":      {Status: StatusSucceeded, Result: []byte("q"), Recovered: true},
	} {
		v := viewOf(t, first.views[id])
		if v.Status != want.Status || v.Error != want.Error || !bytes.Equal(v.Result, want.Result) ||
			v.Recovered != want.Recovered || v.Group != "" {
			t.Fatalf("replayed %s = %+v, want %+v", id, v, want)
		}
	}

	// served is the view each job must serve from now on.
	served := maps.Clone(first.views)
	check := func(what string, r lifeReads, live string) {
		t.Helper()
		checkLists(t, what, r, ids, owner)
		for _, id := range ids {
			if r.views[id] != served[id] {
				t.Fatalf("%s: job %s\n%s\nwant what it served before\n%s", what, id, r.views[id], served[id])
			}
			if id == live {
				continue // its log is the one it logged live
			}
			v := viewOf(t, r.views[id])
			want := fmt.Sprintf("{\"seq\":0,\"at_ns\":%d,\"type\":\"accepted\",\"chunk\":-1}\n"+
				"{\"seq\":1,\"at_ns\":%d,\"type\":\"settled\",\"chunk\":-1,\"status\":%q}\n",
				v.SubmittedAt.UnixNano(), v.FinishedAt.UnixNano(), v.Status)
			if r.events[id] != want {
				t.Fatalf("%s: job %s events\n%s\nwant\n%s", what, id, r.events[id], want)
			}
		}
	}
	for life, order := range []string{"events", "get", "list"} {
		what := fmt.Sprintf("life %d (%s first)", life+2, order)
		env, shutdown := newDurableEnv(t, WithStateDir(dir, durable.WithFsync(false)))
		check(what, readLife(t, env, ids, owner, order), "")
		id := env.submit(t, "key-alice", submitRequest{Job: JobEcho, Arg: []byte("life " + strconv.Itoa(life+2))}).ID
		env.wait(t, "key-alice", id)
		ids = append(ids, id)
		owner[id] = "key-alice"
		after := readLife(t, env, ids, owner, order)
		shutdown()
		if lv := viewOf(t, after.views[id]); lv.Status != StatusSucceeded || string(lv.Result) != "life "+strconv.Itoa(life+2) {
			t.Fatalf("%s: live job %s = %+v", what, id, lv)
		}
		served[id] = after.views[id]
		check(what+" after a live settle", after, id)
	}
}

// checkLists holds each tenant's list in r to the bytes writeSync sends
// for the views r read of that tenant's jobs, in accept order.
func checkLists(t *testing.T, what string, r lifeReads, ids []string, owner map[string]string) {
	t.Helper()
	for key, list := range r.lists {
		views := []JobView{}
		for _, id := range ids {
			if owner[id] == key {
				views = append(views, viewOf(t, r.views[id]))
			}
		}
		if want := syncBytes(http.StatusOK, views); list != string(want) {
			t.Fatalf("%s: %s's list\n%s\nwant what writeSync sends for its views\n%s", what, key, list, want)
		}
	}
}

// copyDir clones a state directory — the moral equivalent of the disk
// image a SIGKILL leaves behind at the instant of the copy.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range ents {
		data, err := os.ReadFile(filepath.Join(src, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, de.Name()), data, 0o600); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCrashImageReplaysQueue snapshots the state dir while jobs are
// still queued and mid-flight (a crash image: the first life never
// closes anything), boots a second service over the image, and checks
// every accepted job re-executes to its byte-exact expected result.
func TestCrashImageReplaysQueue(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	env1, _ := newDurableEnv(t,
		WithStateDir(dirA, durable.WithFsync(false)),
		WithDispatchWindow(2),
	)
	// Spin jobs hold the 2-slot window open so later submissions stay
	// queued; every accept is journaled before its 202.
	spinNs := uint64(150 * time.Millisecond)
	var ids []string
	for i := 0; i < 8; i++ {
		ids = append(ids, env1.submit(t, "key-alice", submitRequest{Job: JobSpin, Arg: U64(spinNs)}).ID)
	}
	copyDir(t, dirA, dirB) // crash image: some running, most queued

	env2, _ := newDurableEnv(t, WithStateDir(dirB, durable.WithFsync(false)))
	if st := env2.srv.ServiceStats(); st.Replayed == 0 {
		t.Fatal("crash image with queued jobs replayed nothing")
	}
	for _, id := range ids {
		v := env2.wait(t, "key-alice", id)
		if v.Status != StatusSucceeded {
			t.Fatalf("replayed job %s: status %q (%s)", id, v.Status, v.Error)
		}
		if !bytes.Equal(v.Result, U64(spinNs)) {
			t.Fatalf("replayed job %s: result %x, want %x", id, v.Result, U64(spinNs))
		}
		if !v.Recovered {
			t.Fatalf("replayed job %s not flagged recovered", id)
		}
	}
}

// TestDurableGroupSurvivesRestart checks group membership crosses the
// restart: a crash image holding a group and queued members comes back
// with the group streaming every member.
func TestDurableGroupSurvivesRestart(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	env1, _ := newDurableEnv(t,
		WithStateDir(dirA, durable.WithFsync(false)),
		WithDispatchWindow(1),
	)
	code, genv := env1.do(t, http.MethodPost, "/v1/groups", "key-alice", nil)
	if code != http.StatusCreated {
		t.Fatalf("group create: %d", code)
	}
	var gv GroupView
	meta(t, genv, &gv)
	var ids []string
	for i := 0; i < 4; i++ {
		ids = append(ids, env1.submit(t, "key-alice", submitRequest{
			Job: JobSpin, Arg: U64(uint64(100 * time.Millisecond)), Group: gv.ID,
		}).ID)
	}
	copyDir(t, dirA, dirB)

	env2, _ := newDurableEnv(t, WithStateDir(dirB, durable.WithFsync(false)))
	for _, id := range ids {
		if v := env2.wait(t, "key-alice", id); v.Group != gv.ID {
			t.Fatalf("job %s lost its group: %+v", id, v)
		}
	}
	code, genv2 := env2.do(t, http.MethodGet, "/v1/groups/"+gv.ID, "key-alice", nil)
	if code != http.StatusOK {
		t.Fatalf("group lost in restart: %d", code)
	}
	var gv2 GroupView
	meta(t, genv2, &gv2)
	if gv2.Members != len(ids) {
		t.Fatalf("group members = %d, want %d", gv2.Members, len(ids))
	}
}

// TestOversizedRegionReplaysFailed restarts over a state dir holding the
// accept of a region over the iteration cap, as a server without the
// admission check journaled it. Replay must settle it failed, not crash
// the process, and the restarted server must refuse the same submit
// without journaling it.
func TestOversizedRegionReplaysFailed(t *testing.T) {
	dir := t.TempDir()
	st, err := durable.Open(dir, durable.WithFsync(false))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(durable.Entry{
		Op: durable.OpAccept, ID: "j-1", At: time.Now().UnixNano(),
		Tenant: "alice", Kind: KindParallelFor, Name: KernelVecSum, N: math.MaxInt,
	}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	env, _ := newDurableEnv(t, WithStateDir(dir, durable.WithFsync(false)))
	v := env.wait(t, "key-alice", "j-1")
	if v.Status != StatusFailed || !strings.Contains(v.Error, "region cap") {
		t.Fatalf("replayed oversized region = %+v, want failed over the region cap", v)
	}
	records := env.srv.DurableStats().JournalRecords
	code, envl := env.do(t, http.MethodPost, "/v1/jobs", "key-alice",
		submitRequest{Job: KernelVecSum, Kind: KindParallelFor, N: math.MaxInt})
	if code != http.StatusBadRequest {
		t.Fatalf("n = MaxInt after restart = %d (%s), want 400", code, envl.Error)
	}
	if got := env.srv.DurableStats().JournalRecords; got != records {
		t.Fatalf("refused submit journaled %d records", got-records)
	}
	ok := env.submit(t, "key-alice", submitRequest{Job: KernelVecSum, Kind: KindParallelFor, N: 500})
	if got := env.wait(t, "key-alice", ok.ID); !bytes.Equal(got.Result, VecSumExpected(500)) {
		t.Fatalf("region after the refusal = %+v", got)
	}
}

// TestNoStoreUnchanged pins the nil-store contract: without a state
// dir nothing durable appears in the snapshot and nothing is written
// anywhere.
func TestNoStoreUnchanged(t *testing.T) {
	env := newTestEnv(t)
	v := env.submit(t, "key-alice", submitRequest{Job: JobEcho, Arg: []byte("x")})
	if got := env.wait(t, "key-alice", v.ID); !bytes.Equal(got.Result, []byte("x")) {
		t.Fatalf("echo = %+v", got)
	}
	if snap := env.srv.Snapshot(); snap.Durable != nil {
		t.Fatalf("nil-store snapshot has a durable section: %+v", snap.Durable)
	}
}
