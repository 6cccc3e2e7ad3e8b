package durable

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// acceptEntry builds an OpAccept for tests.
func acceptEntry(i int, tenant string) Entry {
	return Entry{
		Op: OpAccept, ID: fmt.Sprintf("j-%d", i), Tenant: tenant,
		Kind: "task", Name: "sum", Arg: []byte{byte(i), 1, 2},
		At: time.Now().UnixNano(),
	}
}

func settleEntry(i int, status string, result []byte) Entry {
	return Entry{Op: OpSettle, ID: fmt.Sprintf("j-%d", i), Status: status,
		Result: result, At: time.Now().UnixNano()}
}

func TestOpenEmptyDir(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st := s.Stats()
	if st.Generation != 1 {
		t.Fatalf("generation = %d, want 1", st.Generation)
	}
	if st.ReplayedJobs != 0 {
		t.Fatalf("replayed %d jobs from an empty dir", st.ReplayedJobs)
	}
	if got := s.Recovered(); len(got.Jobs) != 0 || len(got.Groups) != 0 {
		t.Fatalf("non-empty recovered state: %+v", got)
	}
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append(Entry{Op: OpGroup, ID: "g-1", Tenant: "alice"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		e := acceptEntry(i, "alice")
		if i%2 == 0 {
			e.Group = "g-1"
		}
		if err := s.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	// 0,1 settle; 2,3 dispatched but unsettled (mid-flight); 4,5 queued.
	for i := 0; i < 4; i++ {
		if err := s.Append(Entry{Op: OpDispatch, ID: fmt.Sprintf("j-%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Append(settleEntry(0, StatusSucceeded, []byte("res-0"))); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(Entry{Op: OpSettle, ID: "j-1", Status: StatusFailed, Error: "boom"}); err != nil {
		t.Fatal(err)
	}
	// Crash: no Close. Reopen the same dir.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := s2.Recovered()
	if len(got.Jobs) != 6 {
		t.Fatalf("recovered %d jobs, want 6", len(got.Jobs))
	}
	if g := got.Groups["g-1"]; g == nil || g.Tenant != "alice" {
		t.Fatalf("group not recovered: %+v", got.Groups)
	}
	j0 := got.Jobs["j-0"]
	if j0.Status != StatusSucceeded || !bytes.Equal(j0.Result, []byte("res-0")) {
		t.Fatalf("j-0 = %+v", j0)
	}
	if j1 := got.Jobs["j-1"]; j1.Status != StatusFailed || j1.Error != "boom" {
		t.Fatalf("j-1 = %+v", j1)
	}
	for _, id := range []string{"j-2", "j-3"} {
		if j := got.Jobs[id]; j.Status != StatusRunning {
			t.Fatalf("%s status = %q, want running (mid-flight)", id, j.Status)
		}
	}
	for _, id := range []string{"j-4", "j-5"} {
		if j := got.Jobs[id]; j.Status != StatusQueued {
			t.Fatalf("%s status = %q, want queued", id, j.Status)
		}
		if j := got.Jobs[id]; !bytes.Equal(j.Arg, []byte{j.Arg[0], 1, 2}) {
			t.Fatalf("%s arg not preserved: %x", id, j.Arg)
		}
	}
	st := s2.Stats()
	if st.ReplayedJobs != 6 || st.ReplayedSettled != 2 || st.ReplayedInFlight != 2 || st.ReplayedQueued != 2 {
		t.Fatalf("replay stats = %+v", st)
	}
}

func TestCompactionRotatesAndPreserves(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithCompactEvery(4096))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := s.Append(acceptEntry(i, "bob")); err != nil {
			t.Fatal(err)
		}
		if err := s.Append(settleEntry(i, StatusSucceeded, []byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Snapshots == 0 {
		t.Fatalf("no compaction after %d records / %d bytes", st.JournalRecords, st.JournalBytes)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := s2.Recovered()
	if len(got.Jobs) != 200 {
		t.Fatalf("recovered %d jobs across compactions, want 200", len(got.Jobs))
	}
	for i := 0; i < 200; i++ {
		j := got.Jobs[fmt.Sprintf("j-%d", i)]
		if j == nil || j.Status != StatusSucceeded || !bytes.Equal(j.Result, []byte{byte(i)}) {
			t.Fatalf("j-%d = %+v", i, j)
		}
	}
}

// TestLargeStateSurvivesRestart restarts a store whose state is larger
// than one frame may be (maxRecordLen): a snapshot is one frame per job,
// so every job must come back byte-exact and no snapshot may read as
// torn, restart after restart.
func TestLargeStateSurvivesRestart(t *testing.T) {
	const jobs, size = 400, 32 << 10
	blob := func(i int, salt byte) []byte {
		b := make([]byte, size)
		for k := range b {
			b[k] = byte(i*31+k) ^ salt
		}
		return b
	}
	dir := t.TempDir()
	s, err := Open(dir, WithFsync(false))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < jobs; i++ {
		e := acceptEntry(i, "big")
		e.Arg = blob(i, 0x5a)
		if err := s.Append(e); err != nil {
			t.Fatal(err)
		}
		if err := s.Append(settleEntry(i, StatusSucceeded, blob(i, 0xa5))); err != nil {
			t.Fatal(err)
		}
	}
	for cycle := 0; cycle < 3; cycle++ {
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if s, err = Open(dir, WithFsync(false)); err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.TornSnapshots != 0 || st.ReplayedJobs != jobs {
			t.Fatalf("cycle %d: torn snapshots %d, replayed %d jobs, want 0 and %d",
				cycle, st.TornSnapshots, st.ReplayedJobs, jobs)
		}
		got := s.Recovered()
		for i := 0; i < jobs; i++ {
			j := got.Jobs[fmt.Sprintf("j-%d", i)]
			if j == nil || j.Status != StatusSucceeded ||
				!bytes.Equal(j.Arg, blob(i, 0x5a)) || !bytes.Equal(j.Result, blob(i, 0xa5)) {
				t.Fatalf("cycle %d: j-%d not recovered byte-exact", cycle, i)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestApplyIdempotent(t *testing.T) {
	entries := []Entry{
		{Op: OpAccept, ID: "j-1", Tenant: "a", Name: "sum", Arg: []byte{1}},
		{Op: OpDispatch, ID: "j-1"},
		{Op: OpSettle, ID: "j-1", Status: StatusSucceeded, Result: []byte{9}},
	}
	once := newState()
	for _, e := range entries {
		once.apply(e)
	}
	twice := newState()
	for _, e := range entries {
		twice.apply(e)
	}
	for _, e := range entries { // a replayed suffix must change nothing
		twice.apply(e)
	}
	j1, j2 := once.Jobs["j-1"], twice.Jobs["j-1"]
	if j1.Status != j2.Status || !bytes.Equal(j1.Result, j2.Result) {
		t.Fatalf("replayed fold diverged: %+v vs %+v", j1, j2)
	}
	// A settle must not resurrect or mutate a terminal job.
	twice.apply(Entry{Op: OpSettle, ID: "j-1", Status: StatusFailed, Error: "late"})
	if twice.Jobs["j-1"].Status != StatusSucceeded {
		t.Fatal("late settle overwrote a terminal state")
	}
	twice.apply(Entry{Op: OpDispatch, ID: "j-1"})
	if twice.Jobs["j-1"].Status != StatusSucceeded {
		t.Fatal("late dispatch overwrote a terminal state")
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(acceptEntry(1, "x")); err == nil {
		t.Fatal("append after Close succeeded")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestSettledJobStateImmutable pins what a caller that keeps a settled
// job of the recovered state relies on: no later append, replayed
// record or compaction writes to it, and it can be read while others
// append (run under -race).
func TestSettledJobStateImmutable(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithFsync(false))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []Entry{acceptEntry(1, "a"), settleEntry(1, StatusSucceeded, []byte{7})} {
		if err := s.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = Open(dir, WithFsync(false)); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	kept := s.Recovered().Jobs["j-1"]
	if kept == nil || !kept.Settled() {
		t.Fatalf("recovered j-1 = %+v, want settled", kept)
	}
	want := *kept

	stop := make(chan struct{})
	read := make(chan JobState)
	go func() {
		for {
			last := *kept
			select {
			case <-stop:
				read <- last
				return
			default:
			}
		}
	}()
	late := []Entry{
		acceptEntry(1, "b"),
		{Op: OpDispatch, ID: "j-1", At: 5},
		settleEntry(1, StatusFailed, []byte{8}),
		acceptEntry(2, "a"),
		settleEntry(2, StatusSucceeded, nil),
	}
	for _, e := range late {
		if err := s.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	if got := <-read; !reflect.DeepEqual(got, want) {
		t.Fatalf("a reader saw j-1 as %+v, want %+v", got, want)
	}
	if !reflect.DeepEqual(*kept, want) {
		t.Fatalf("kept j-1 became %+v, want %+v", *kept, want)
	}
	if s.Recovered().Jobs["j-1"] != kept {
		t.Fatal("the store replaced its settled j-1")
	}
}
