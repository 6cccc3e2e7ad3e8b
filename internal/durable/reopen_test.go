package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// abandon drops a store the way a SIGKILL does: the wal handle goes,
// nothing is compacted.
func abandon(s *Store) {
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = s.f.Close()
	s.f, s.closed = nil, true
}

// newestGen is the highest generation with a file in dir.
func newestGen(t *testing.T, dir string) uint64 {
	t.Helper()
	gens, err := (&Store{dir: dir}).scanGenerations()
	if err != nil || len(gens) == 0 {
		t.Fatalf("no generation in %s: %v", dir, err)
	}
	return gens[len(gens)-1]
}

// closedDir leaves a state dir the way Close does: four settled jobs
// folded into the newest snapshot, an empty wal beside it.
func closedDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir, WithFsync(false))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := s.Append(acceptEntry(i, "t")); err != nil {
			t.Fatal(err)
		}
		if err := s.Append(settleEntry(i, StatusSucceeded, []byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// genSizes returns the byte sizes of the newest generation's wal and
// snapshot in dir.
func genSizes(t *testing.T, dir string) (wal, snap int64) {
	t.Helper()
	gen := newestGen(t, dir)
	for _, f := range []struct {
		name string
		size *int64
	}{{fmt.Sprintf("wal-%06d.log", gen), &wal}, {fmt.Sprintf("snap-%06d.db", gen), &snap}} {
		fi, err := os.Stat(filepath.Join(dir, f.name))
		if err != nil {
			t.Fatal(err)
		}
		*f.size = fi.Size()
	}
	return wal, snap
}

// reopenAppend opens a closed dir, appends es and drops the store the
// way a SIGKILL does.
func reopenAppend(t *testing.T, es ...Entry) string {
	t.Helper()
	dir := closedDir(t)
	s, err := Open(dir, WithFsync(false))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range es {
		if err := s.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	abandon(s)
	return dir
}

// TestReopenCompactsOnlyToFold pins Open's rule: a dir as Close left it,
// or with an intact wal under a quarter of the snapshot's bytes beside
// it, reopens without writing a snapshot and appends to the existing
// wal; every other layout is folded into a fresh generation. Either way
// the appends of the reopened store survive the next (crash) reopen.
func TestReopenCompactsOnlyToFold(t *testing.T) {
	cases := []struct {
		name    string
		prepare func(t *testing.T) string
		jobs    int
		compact bool
	}{
		{"closed", closedDir, 4, false},
		{"wal-with-records", func(t *testing.T) string {
			dir := reopenAppend(t, acceptEntry(100, "t"))
			if wal, snap := genSizes(t, dir); wal == 0 || folds(wal, snap) {
				t.Fatalf("layout: wal of %d bytes beside a %d-byte snapshot, want under a quarter", wal, snap)
			}
			return dir
		}, 5, false},
		{"wal-of-a-quarter", func(t *testing.T) string {
			var es []Entry
			for i := 100; i < 104; i++ {
				es = append(es, acceptEntry(i, "t"), settleEntry(i, StatusSucceeded, []byte{byte(i)}))
			}
			dir := reopenAppend(t, es...)
			if wal, snap := genSizes(t, dir); !folds(wal, snap) {
				t.Fatalf("layout: wal of %d bytes beside a %d-byte snapshot, want a quarter or more", wal, snap)
			}
			return dir
		}, 8, true},
		{"torn-wal-tail", func(t *testing.T) string {
			dir := closedDir(t)
			frame := binEntry(t, acceptEntry(100, "t"))
			writeFile(t, dir, fmt.Sprintf("wal-%06d.log", newestGen(t, dir)), frame[:len(frame)-3])
			return dir
		}, 4, true},
		{"small-wal-torn-tail", func(t *testing.T) string {
			dir := closedDir(t)
			frame := binEntry(t, acceptEntry(100, "t"))
			torn := binEntry(t, acceptEntry(101, "t"))
			writeFile(t, dir, fmt.Sprintf("wal-%06d.log", newestGen(t, dir)), frame, torn[:len(torn)-3])
			return dir
		}, 5, true},
		{"torn-newest-snapshot", func(t *testing.T) string {
			dir := closedDir(t)
			snap := filepath.Join(dir, fmt.Sprintf("snap-%06d.db", newestGen(t, dir)))
			img, err := os.ReadFile(snap)
			if err != nil {
				t.Fatal(err)
			}
			writeFile(t, dir, filepath.Base(snap), img[:len(img)/2])
			return dir
		}, 4, true},
		{"wal-only-newest-generation", func(t *testing.T) string {
			dir := closedDir(t)
			writeFile(t, dir, fmt.Sprintf("wal-%06d.log", newestGen(t, dir)+1))
			return dir
		}, 4, true},
		{"version-1-snapshot", func(t *testing.T) string {
			dir := t.TempDir()
			writeV1Snapshot(t, dir)
			writeFile(t, dir, "wal-000001.log")
			return dir
		}, 3, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := tc.prepare(t)
			gen := newestGen(t, dir)
			s, err := Open(dir, WithFsync(false))
			if err != nil {
				t.Fatal(err)
			}
			st := s.Stats()
			wantSnaps, wantGen := uint64(0), gen
			if tc.compact {
				wantSnaps, wantGen = 1, gen+1
			}
			if st.Snapshots != wantSnaps || st.Generation != wantGen {
				t.Fatalf("Open wrote %d snapshots, generation %d; want %d and %d",
					st.Snapshots, st.Generation, wantSnaps, wantGen)
			}
			if got := len(s.Recovered().Jobs); got != tc.jobs {
				t.Fatalf("recovered %d jobs, want %d", got, tc.jobs)
			}
			if err := s.Append(acceptEntry(200, "t")); err != nil {
				t.Fatal(err)
			}
			abandon(s)

			s2, err := Open(dir, WithFsync(false))
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			got := s2.Recovered()
			if len(got.Jobs) != tc.jobs+1 || got.Jobs["j-200"] == nil {
				t.Fatalf("second reopen recovered %d jobs (j-200 %v), want %d with j-200",
					len(got.Jobs), got.Jobs["j-200"] != nil, tc.jobs+1)
			}
			if st2 := s2.Stats(); st2.DroppedTailBytes != 0 || st2.TornSnapshots != 0 {
				t.Fatalf("append after reopen landed behind damage: %+v", st2)
			}
		})
	}
}

// TestCompactFsyncs pins the fsyncs of each step: a compaction costs
// two (the snapshot file, then one directory fsync covering its rename
// and the new wal), a reopen without compaction one (the directory).
// Close pins both branches: a wal under a quarter of the snapshot's
// bytes closes with none, a grown wal with a compaction's two.
func TestCompactFsyncs(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithFsync(false))
	if err != nil {
		t.Fatal(err)
	}
	fsyncs := func(s *Store, want uint64, step string) {
		t.Helper()
		if got := s.Stats().Fsyncs; got != want {
			t.Fatalf("%s: %d fsyncs, want %d", step, got, want)
		}
	}
	appendJobs := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := s.Append(acceptEntry(i, "t")); err != nil {
				t.Fatal(err)
			}
		}
	}
	reopen := func(step string) {
		t.Helper()
		if s, err = Open(dir, WithFsync(false)); err != nil {
			t.Fatal(err)
		}
		fsyncs(s, 1, step)
	}
	fsyncs(s, 2, "Open of an empty dir")
	appendJobs(0, 3)
	fsyncs(s, 2, "appends without fsync")
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	fsyncs(s, 4, "Compact")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	fsyncs(s, 4, "Close of an empty wal")

	reopen("reopen of a closed dir")
	appendJobs(3, 6)
	if st := s.Stats(); !folds(st.JournalBytes, s.snapBytes) {
		t.Fatalf("layout: wal of %d bytes beside a %d-byte snapshot, want a quarter or more",
			st.JournalBytes, s.snapBytes)
	}
	gen := s.Stats().Generation
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	fsyncs(s, 3, "Close of a grown wal")
	if st := s.Stats(); st.Generation != gen+1 || st.Snapshots != 1 {
		t.Fatalf("Close of a grown wal: generation %d, %d snapshots; want %d and 1",
			st.Generation, st.Snapshots, gen+1)
	}

	reopen("reopen of a folded dir")
	appendJobs(6, 7)
	if st := s.Stats(); folds(st.JournalBytes, s.snapBytes) {
		t.Fatalf("layout: wal of %d bytes beside a %d-byte snapshot, want under a quarter",
			st.JournalBytes, s.snapBytes)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	fsyncs(s, 1, "Close of a small wal")

	reopen("reopen of a small intact wal")
	defer s.Close()
	if n := len(s.Recovered().Jobs); n != 7 {
		t.Fatalf("recovered %d jobs, want 7", n)
	}
}

// jobIDs lists the state's jobs in its order.
func jobIDs(st *State) []string {
	ids := make([]string, len(st.JobOrder))
	for i, j := range st.JobOrder {
		ids[i] = j.ID
	}
	return ids
}

// groupIDs lists the state's groups in its order.
func groupIDs(st *State) []string {
	ids := make([]string, len(st.GroupOrder))
	for i, g := range st.GroupOrder {
		ids[i] = g.ID
	}
	return ids
}

// TestSnapshotOrder pins the order a state keeps: journal order, which
// survives Close, Open, compaction and an unfolded wal, whatever the
// IDs' string order; an ID-ordered image written before snapshots kept
// that order replays in accept order, and so do two accepts journaled
// against their times.
func TestSnapshotOrder(t *testing.T) {
	t.Run("journal-order", func(t *testing.T) {
		dir := t.TempDir()
		s, err := Open(dir, WithFsync(false))
		if err != nil {
			t.Fatal(err)
		}
		var want, wantGroups []string
		for k, id := range []int{2, 10, 1, 30, 3} {
			g := fmt.Sprintf("g-%d", 10-k)
			if err := s.Append(Entry{Op: OpGroup, ID: g, Tenant: "t", At: int64(10*k + 1)}); err != nil {
				t.Fatal(err)
			}
			e := acceptEntry(id, "t")
			e.At, e.Group = int64(10*k+2), g
			if err := s.Append(e); err != nil {
				t.Fatal(err)
			}
			want, wantGroups = append(want, e.ID), append(wantGroups, g)
		}
		if err := s.Append(settleEntry(10, StatusSucceeded, []byte("r"))); err != nil {
			t.Fatal(err)
		}
		check := func(s *Store, step string) {
			t.Helper()
			st := s.Recovered()
			if got := jobIDs(st); !slices.Equal(got, want) {
				t.Fatalf("%s: jobs in order %v, want %v", step, got, want)
			}
			if got := groupIDs(st); !slices.Equal(got, wantGroups) {
				t.Fatalf("%s: groups in order %v, want %v", step, got, wantGroups)
			}
			if len(st.Jobs) != len(st.JobOrder) || len(st.Groups) != len(st.GroupOrder) {
				t.Fatalf("%s: maps hold %d jobs, %d groups; order %d, %d", step,
					len(st.Jobs), len(st.Groups), len(st.JobOrder), len(st.GroupOrder))
			}
		}
		check(s, "appends")
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if s, err = Open(dir, WithFsync(false)); err != nil {
			t.Fatal(err)
		}
		check(s, "reopen after Close")
		e := acceptEntry(0, "t")
		e.At = 100
		if err := s.Append(e); err != nil {
			t.Fatal(err)
		}
		want = append(want, e.ID)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.Snapshots != 0 {
			t.Fatalf("Close folded a %d-byte wal", st.JournalBytes)
		}
		if s, err = Open(dir, WithFsync(false)); err != nil {
			t.Fatal(err)
		}
		check(s, "reopen of an unfolded wal")
		if err := s.Compact(); err != nil {
			t.Fatal(err)
		}
		abandon(s)
		if s, err = Open(dir, WithFsync(false)); err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		check(s, "reopen after compaction")
	})

	t.Run("id-ordered-image", func(t *testing.T) {
		// Accept order j-3, j-20, j-1; ID order j-1, j-20, j-3.
		st := newState()
		for k, id := range []int{3, 20, 1} {
			e := acceptEntry(id, "t")
			e.At = int64(k + 1)
			st.apply(e)
			st.apply(Entry{Op: OpGroup, ID: fmt.Sprintf("g-%d", id), Tenant: "t", At: int64(k + 1)})
		}
		byID := func(a, b *JobState) int { return strings.Compare(a.ID, b.ID) }
		slices.SortFunc(st.JobOrder, byID)
		slices.SortFunc(st.GroupOrder, func(a, b *GroupState) int { return strings.Compare(a.ID, b.ID) })
		img, err := encodeSnapshot(st, 1, 5)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		writeFile(t, dir, "snap-000001.db", img)
		writeFile(t, dir, "wal-000001.log")
		s, err := Open(dir, WithFsync(false))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		got := s.Recovered()
		if ids := jobIDs(got); !slices.Equal(ids, []string{"j-3", "j-20", "j-1"}) {
			t.Fatalf("jobs replayed in order %v, want accept order j-3 j-20 j-1", ids)
		}
		if ids := groupIDs(got); !slices.Equal(ids, []string{"g-3", "g-20", "g-1"}) {
			t.Fatalf("groups replayed in order %v, want g-3 g-20 g-1", ids)
		}
	})

	t.Run("accepts-journaled-against-their-times", func(t *testing.T) {
		dir := t.TempDir()
		writeWal(t, dir, 1, []Entry{
			{Op: OpAccept, ID: "j-1", Tenant: "t", At: 10},
			{Op: OpAccept, ID: "j-3", Tenant: "t", At: 30},
			{Op: OpAccept, ID: "j-2", Tenant: "t", At: 20},
		}, nil)
		s, err := Open(dir, WithFsync(false))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if ids := jobIDs(s.Recovered()); !slices.Equal(ids, []string{"j-1", "j-2", "j-3"}) {
			t.Fatalf("jobs replayed in order %v, want j-1 j-2 j-3", ids)
		}
	})
}

// TestOpenAllocs pins a clean reopen's cost: nothing per replayed job.
// The IDs are carved out of one buffer, every other string a job
// carries is shared, its bytes alias the snapshot image, and the jobs,
// the order and the map are each allocated once; only the map's tables
// grow with the job count.
func TestOpenAllocs(t *testing.T) {
	const jobs = 1000
	dir := t.TempDir()
	s, err := Open(dir, WithFsync(false))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < jobs; i++ {
		for _, e := range svcEntries(i) {
			e.Tenant = []string{"client0", "client1"}[i%2]
			if err := s.Append(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		s, err := Open(dir, WithFsync(false))
		if err != nil {
			t.Fatal(err)
		}
		if n := s.Stats().ReplayedJobs; n != jobs {
			t.Fatalf("replayed %d jobs, want %d", n, jobs)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	})
	if perJob := allocs / jobs; perJob > 0.1 {
		t.Fatalf("a clean Open allocates %.3f objects per replayed job, want <= 0.1", perJob)
	}
}

// TestGenerationPastSixDigits: generation numbers are zero-padded to six
// digits, not capped there. A store compacted from generation 999 999 to
// 1 000 001 reopens at its newest generation and finds every job.
func TestGenerationPastSixDigits(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithFsync(false))
	if err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	s.gen = 999_998
	err = s.compactLocked()
	s.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Append(acceptEntry(i, "t")); err != nil {
			t.Fatal(err)
		}
		if err := s.Append(settleEntry(i, StatusSucceeded, []byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
		if i < 2 {
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := s.Stats().Generation; got != 1_000_001 {
		t.Fatalf("generation %d after three compactions from 999 998, want 1000001", got)
	}
	want := s.Stats().Generation
	abandon(s)
	if _, err := os.Stat(filepath.Join(dir, "snap-1000001.db")); err != nil {
		t.Fatal(err)
	}

	s, err = Open(dir, WithFsync(false))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Stats().Generation; got < want {
		t.Errorf("reopened at generation %d, want >= %d", got, want)
	}
	if got := jobIDs(s.Recovered()); !slices.Equal(got, []string{"j-0", "j-1", "j-2"}) {
		t.Errorf("reopened with jobs %v, want [j-0 j-1 j-2]", got)
	}
}

// TestGenFileNames: a generation file's name is parsed only as genFile
// renders it.
func TestGenFileNames(t *testing.T) {
	for _, tc := range []struct {
		name string
		gen  uint64
		ok   bool
	}{
		{"snap-000001.db", 1, true},
		{"wal-000042.log", 42, true},
		{"snap-999999.db", 999_999, true},
		{"snap-1234567.db", 1_234_567, true},
		{"wal-18446744073709551615.log", 1<<64 - 1, true},
		{"snap-1.db", 0, false},
		{"snap-0000001.db", 0, false},
		{"snap-+00001.db", 0, false},
		{"snap-000001.db.tmp", 0, false},
		{"snap-000001.log", 0, false},
		{"snap-00000x.db", 0, false},
		{"wal-18446744073709551616.log", 0, false},
	} {
		gen, ok := snapFile.parse(tc.name)
		if !ok {
			gen, ok = walFile.parse(tc.name)
		}
		if ok != tc.ok || (ok && gen != tc.gen) {
			t.Errorf("parse(%q) = %d, %v; want %d, %v", tc.name, gen, ok, tc.gen, tc.ok)
		}
	}
	s := &Store{dir: "d"}
	if got := s.genFile(snapFile, 1_234_567); got != filepath.Join("d", "snap-1234567.db") {
		t.Errorf("genFile(snap, 1234567) = %q", got)
	}
	if got := s.genFile(walFile, 3); got != filepath.Join("d", "wal-000003.log") {
		t.Errorf("genFile(wal, 3) = %q", got)
	}
}

// TestOpenCloseAllocs pins what a clean Open and Close cost whatever the
// state holds: the directory scan, the generation's file names, the
// snapshot and wal reads and the wal reopen, here on an empty state.
func TestOpenCloseAllocs(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithFsync(false))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		s, err := Open(dir, WithFsync(false))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 39 {
		t.Errorf("a clean Open and Close of an empty state dir allocate %.0f objects, want <= 39", allocs)
	}
}

// indexSink keeps the map TestSnapshotDecodeAllocs measures on the heap.
var indexSink map[string]*JobState

// TestSnapshotDecodeAllocs pins what decoding a snapshot of N svc-shaped
// jobs allocates beside its ID index: a count independent of N. The IDs
// are carved out of one buffer and the repeated fields are shared, so
// only the index map, whose tables grow with N, is left; the test
// subtracts what making that map with the same hint allocates.
func TestSnapshotDecodeAllocs(t *testing.T) {
	var fixed [2]float64
	for k, jobs := range []int{1000, 10000} {
		st := newState()
		for i := 0; i < jobs; i++ {
			for _, e := range svcEntries(i) {
				e.Tenant = []string{"client0", "client1"}[i%2]
				st.apply(e)
			}
		}
		img, err := encodeSnapshot(st, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		decode := testing.AllocsPerRun(5, func() {
			dec, _, _, err := decodeSnapshot(img)
			if err != nil || len(dec.JobOrder) != jobs {
				t.Fatalf("decoded %d jobs (%v), want %d", len(dec.JobOrder), err, jobs)
			}
		})
		index := testing.AllocsPerRun(5, func() { indexSink = make(map[string]*JobState, jobs) })
		fixed[k] = decode - index
	}
	if fixed[0] != fixed[1] {
		t.Fatalf("decoding a snapshot allocates %.0f objects beside its index at 1 000 jobs, %.0f at 10 000: want the same",
			fixed[0], fixed[1])
	}
}
