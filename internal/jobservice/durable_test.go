package jobservice

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
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

// TestRecoverFromStoreAllocs pins what rebuilding a replayed settled
// job costs: nothing of its own. Every record and event log comes from
// one slab, and the job table is sized once.
func TestRecoverFromStoreAllocs(t *testing.T) {
	const jobs = 1000
	st, err := durable.Open(t.TempDir(), durable.WithFsync(false))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
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
	alice := &tenantState{Tenant: testTenants[0]}
	s := &Server{
		cfg:    config{store: st},
		byName: map[string]*tenantState{"alice": alice},
		groups: make(map[string]*groupRec),
	}
	allocs := testing.AllocsPerRun(10, func() {
		alice.jobs = alice.jobs[:0]
		s.recoverFromStore()
	})
	if len(s.jobs) != jobs {
		t.Fatalf("rebuilt %d jobs, want %d", len(s.jobs), jobs)
	}
	if perJob := allocs / jobs; perJob > 0.01 {
		t.Fatalf("recoverFromStore allocates %.3f objects per settled job, want <= 0.01", perJob)
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
