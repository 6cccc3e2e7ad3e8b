package durable

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"testing"
)

// frameOf frames one payload.
func frameOf(payload []byte) []byte {
	b, start := openFrame(nil)
	b = append(b, payload...)
	closeFrame(b, start)
	return b
}

// v1Entry frames an entry the way version-1 stores did: JSON.
func v1Entry(t testing.TB, e Entry) []byte {
	t.Helper()
	payload, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	return frameOf(payload)
}

// v1Snapshot renders a snapshot file the way version-1 stores did: one
// frame holding the whole state as JSON, jobs and groups in ID order.
func v1Snapshot(t testing.TB, gen uint64, at int64, jobs []JobState, groups []GroupState) []byte {
	t.Helper()
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].ID < jobs[b].ID })
	sort.Slice(groups, func(a, b int) bool { return groups[a].ID < groups[b].ID })
	payload, err := json.Marshal(struct {
		Version int          `json:"version"`
		Gen     uint64       `json:"gen"`
		At      int64        `json:"at"`
		Jobs    []JobState   `json:"jobs"`
		Groups  []GroupState `json:"groups,omitempty"`
	}{1, gen, at, jobs, groups})
	if err != nil {
		t.Fatal(err)
	}
	return frameOf(payload)
}

func binEntry(t testing.TB, e Entry) []byte {
	t.Helper()
	frame, err := encodeEntry(e)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

func writeFile(t testing.TB, dir, name string, chunks ...[]byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), bytes.Join(chunks, nil), 0o600); err != nil {
		t.Fatal(err)
	}
}

// sameEntry compares entries, reading an empty byte field as nil.
func sameEntry(a, b Entry) bool {
	if !bytes.Equal(a.Arg, b.Arg) || !bytes.Equal(a.Result, b.Result) {
		return false
	}
	a.Arg, a.Result, b.Arg, b.Result = nil, nil, nil, nil
	return reflect.DeepEqual(a, b)
}

// TestOpenReadsVersion1 recovers a state dir written by a version-1
// store — a JSON snapshot frame plus a wal of JSON entries — and checks
// that Open folds it into the same states, counts the same replay, and
// rewrites it in the binary format.
func TestOpenReadsVersion1(t *testing.T) {
	t.Run("parent-layout", func(t *testing.T) {
		dir := t.TempDir()
		snapJobs := []JobState{
			{ID: "j-1", Tenant: "alice", Kind: "task", Name: "sum", Arg: []byte{1, 2, 3}, Group: "g-1",
				Status: StatusSucceeded, Result: []byte("res-1"), SubmittedNs: 11, StartedNs: 12, FinishedNs: 13},
			{ID: "j-2", Tenant: "alice", Kind: "parallel_for", Name: "vecsum", N: 4000,
				Status: StatusRunning, SubmittedNs: 14, StartedNs: 15},
			{ID: "j-3", Tenant: "bob", Kind: "task", Name: "spin", Status: StatusFailed,
				Error: "boom", Recovered: true, SubmittedNs: 16, StartedNs: 17, FinishedNs: 18},
		}
		writeFile(t, dir, "snap-000001.db", v1Snapshot(t, 1, 19,
			append([]JobState(nil), snapJobs...), []GroupState{{ID: "g-1", Tenant: "alice", CreatedNs: 10}}))
		writeFile(t, dir, "wal-000001.log",
			v1Entry(t, Entry{Op: OpAccept, ID: "j-4", At: 20, Tenant: "bob", Kind: "task", Name: "echo",
				Arg: []byte("four"), Group: "g-1"}),
			v1Entry(t, Entry{Op: OpAccept, ID: "j-5", At: 21, Tenant: "bob", Kind: "task", Name: "echo"}),
			v1Entry(t, Entry{Op: OpDispatch, ID: "j-5", At: 22}),
			v1Entry(t, Entry{Op: OpGroup, ID: "g-2", At: 23, Tenant: "bob"}))

		wantJobs := map[string]JobState{
			"j-1": snapJobs[0], "j-2": snapJobs[1], "j-3": snapJobs[2],
			"j-4": {ID: "j-4", Tenant: "bob", Kind: "task", Name: "echo", Arg: []byte("four"), Group: "g-1",
				Status: StatusQueued, SubmittedNs: 20},
			"j-5": {ID: "j-5", Tenant: "bob", Kind: "task", Name: "echo", Status: StatusRunning,
				SubmittedNs: 21, StartedNs: 22},
		}
		wantGroups := map[string]GroupState{
			"g-1": {ID: "g-1", Tenant: "alice", CreatedNs: 10},
			"g-2": {ID: "g-2", Tenant: "bob", CreatedNs: 23},
		}
		check := func(s *Store) {
			t.Helper()
			got := s.Recovered()
			gotJobs := make(map[string]JobState, len(got.Jobs))
			for id, j := range got.Jobs {
				gotJobs[id] = *j
			}
			gotGroups := make(map[string]GroupState, len(got.Groups))
			for id, g := range got.Groups {
				gotGroups[id] = *g
			}
			if !reflect.DeepEqual(gotJobs, wantJobs) {
				t.Fatalf("jobs:\n got %+v\nwant %+v", gotJobs, wantJobs)
			}
			if !reflect.DeepEqual(gotGroups, wantGroups) {
				t.Fatalf("groups:\n got %+v\nwant %+v", gotGroups, wantGroups)
			}
			st := s.Stats()
			if st.ReplayedJobs != 5 || st.ReplayedSettled != 2 || st.ReplayedInFlight != 2 ||
				st.ReplayedQueued != 1 || st.TornSnapshots != 0 || st.DroppedTailBytes != 0 {
				t.Fatalf("replay stats = %+v", st)
			}
		}

		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		check(s)
		// Open's compaction rewrote the state as binary generation 2.
		img, err := os.ReadFile(filepath.Join(dir, "snap-000002.db"))
		if err != nil {
			t.Fatal(err)
		}
		if head, _, ok := readFrame(img, 0); !ok || len(head) == 0 || head[0] != tagSnapshot {
			t.Fatalf("newest snapshot is not a binary header record: % x", img[:min(len(img), 16)])
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s, err = Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		check(s)
	})

	t.Run("json-prefix-binary-suffix", func(t *testing.T) {
		dir := t.TempDir()
		writeFile(t, dir, "wal-000001.log",
			v1Entry(t, Entry{Op: OpAccept, ID: "j-1", At: 1, Tenant: "t", Name: "echo", Arg: []byte{1}}),
			v1Entry(t, Entry{Op: OpAccept, ID: "j-2", At: 2, Tenant: "t", Name: "echo"}),
			binEntry(t, Entry{Op: OpDispatch, ID: "j-1", At: 3}),
			binEntry(t, Entry{Op: OpSettle, ID: "j-1", At: 4, Status: StatusSucceeded, Result: []byte("r1")}),
			binEntry(t, Entry{Op: OpSettle, ID: "j-2", At: 5, Status: StatusFailed, Error: "e2"}))
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		got := s.Recovered()
		j1, j2 := got.Jobs["j-1"], got.Jobs["j-2"]
		if j1 == nil || j1.Status != StatusSucceeded || string(j1.Result) != "r1" || j1.StartedNs != 3 || j1.FinishedNs != 4 {
			t.Fatalf("j-1 = %+v", j1)
		}
		if j2 == nil || j2.Status != StatusFailed || j2.Error != "e2" || j2.FinishedNs != 5 {
			t.Fatalf("j-2 = %+v", j2)
		}
		if st := s.Stats(); st.ReplayedSettled != 2 || st.DroppedTailBytes != 0 {
			t.Fatalf("replay stats = %+v", st)
		}
	})
}

// TestEntryEncodeAllocs pins the append path's encode cost: one buffer
// per framed entry.
func TestEntryEncodeAllocs(t *testing.T) {
	e := acceptEntry(7, "alice")
	e.Arg = bytes.Repeat([]byte{7}, 256)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := encodeEntry(e); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("encodeEntry allocates %.0f objects per accept entry, want <= 1", allocs)
	}
}

// TestEncodeEntryRefusesUnwritable checks that Append refuses what no
// reader would accept, instead of journaling a record replay would drop.
func TestEncodeEntryRefusesUnwritable(t *testing.T) {
	if _, err := encodeEntry(Entry{Op: "bogus", ID: "j-1"}); err == nil {
		t.Fatal("encoded an unknown op")
	}
	if _, err := encodeEntry(Entry{Op: OpSettle, ID: "j-1", Result: make([]byte, maxRecordLen)}); err == nil {
		t.Fatal("encoded a record over maxRecordLen")
	}
}

// FuzzSnapshotDecode feeds arbitrary bytes to the snapshot reader: it
// must never panic, no declared count may allocate beyond what the
// input could hold, and an accepted binary image must re-encode to the
// same bytes (a version-1 one to a binary image that is a fixed point).
func FuzzSnapshotDecode(f *testing.F) {
	st := newState()
	for _, e := range nEntries(3) {
		st.apply(e)
	}
	st.apply(Entry{Op: OpSettle, ID: "j-1", Status: StatusSucceeded, Result: []byte("r"), At: 9})
	st.apply(Entry{Op: OpGroup, ID: "g-1", Tenant: "t", At: 1})
	img, err := encodeSnapshot(st, 4, 99)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(img)
	f.Add(img[:len(img)-3])
	f.Add(append(append([]byte(nil), img...), 0))
	f.Add(v1Snapshot(f, 2, 5, []JobState{{ID: "j-1", Tenant: "t", Status: StatusQueued, Arg: []byte{1}}},
		[]GroupState{{ID: "g-1", Tenant: "t"}}))
	f.Add(frameOf([]byte{tagSnapshot, 1, 0, 0xff, 0xff, 0xff, 0xff, 0x0f, 0}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st, gen, at, err := decodeSnapshot(data)
		runtime.ReadMemStats(&after)
		head, _, _ := readFrame(data, 0)
		if alloc := after.TotalAlloc - before.TotalAlloc; !isV1(head) && alloc > 32*uint64(len(data))+64<<10 {
			t.Fatalf("decoding %d bytes allocated %d", len(data), alloc)
		}
		if err != nil {
			return
		}
		img, err := encodeSnapshot(st, gen, at)
		if err != nil {
			t.Fatalf("accepted state does not re-encode: %v", err)
		}
		if !isV1(head) && !bytes.Equal(img, data) {
			t.Fatalf("accepted image re-encodes differently:\n in % x\nout % x", data, img)
		}
		st2, gen2, at2, err := decodeSnapshot(img)
		if err != nil || gen2 != gen || at2 != at || len(st2.Jobs) != len(st.Jobs) || len(st2.Groups) != len(st.Groups) {
			t.Fatalf("re-encoded image does not decode back: %v", err)
		}
		if img2, _ := encodeSnapshot(st2, gen2, at2); !bytes.Equal(img2, img) {
			t.Fatal("binary image is not a fixed point")
		}
	})
}

// svcEntries are one svc-shaped job's records: a 16-byte argument, an
// 8-byte result.
func svcEntries(i int) [3]Entry {
	id := fmt.Sprintf("j-%d", i+1)
	return [3]Entry{
		{Op: OpAccept, ID: id, At: 1, Tenant: "client0", Kind: "task", Name: "sum", Arg: make([]byte, 16)},
		{Op: OpDispatch, ID: id},
		{Op: OpSettle, ID: id, Status: StatusSucceeded, Result: make([]byte, 8)},
	}
}

// BenchmarkOpen times recovery of a 5 000-job store, the cost the
// ledger row durable.open_ms_per_kjob measures from outside: read and
// decode the snapshot, then Open's own compaction.
func BenchmarkOpen(b *testing.B) {
	const jobs = 5000
	dir := b.TempDir()
	s, err := Open(dir, WithFsync(false))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < jobs; i++ {
		for _, e := range svcEntries(i) {
			if err := s.Append(e); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if n := s.Stats().ReplayedJobs; n != jobs {
			b.Fatalf("replayed %d jobs, want %d", n, jobs)
		}
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1e6/(jobs/1000), "ms/kjob")
}

// BenchmarkAppendNoSync times one unsynced append of svc-shaped records,
// the cost behind the ledger row durable.append_nosync_us. Job IDs
// cycle over 1 000, so the folded state, and with it compaction, stays
// the same size however long the benchmark runs.
func BenchmarkAppendNoSync(b *testing.B) {
	s, err := Open(b.TempDir(), WithFsync(false))
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	var entries []Entry
	for i := 0; i < 1000; i++ {
		es := svcEntries(i)
		entries = append(entries, es[:]...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Append(entries[i%len(entries)]); err != nil {
			b.Fatal(err)
		}
	}
}
