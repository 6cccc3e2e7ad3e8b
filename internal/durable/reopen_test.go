package durable

import (
	"fmt"
	"os"
	"path/filepath"
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

// TestReopenCompactsOnlyToFold pins Open's rule: a dir as Close left it
// reopens without writing a snapshot and appends to the existing wal;
// every other layout is folded into a fresh generation. Either way the
// appends of the reopened store survive the next (crash) reopen.
func TestReopenCompactsOnlyToFold(t *testing.T) {
	cases := []struct {
		name    string
		prepare func(t *testing.T) string
		jobs    int
		compact bool
	}{
		{"closed", closedDir, 4, false},
		{"wal-with-records", func(t *testing.T) string {
			dir := closedDir(t)
			s, err := Open(dir, WithFsync(false))
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Append(acceptEntry(100, "t")); err != nil {
				t.Fatal(err)
			}
			abandon(s)
			return dir
		}, 5, true},
		{"torn-wal-tail", func(t *testing.T) string {
			dir := closedDir(t)
			frame := binEntry(t, acceptEntry(100, "t"))
			writeFile(t, dir, fmt.Sprintf("wal-%06d.log", newestGen(t, dir)), frame[:len(frame)-3])
			return dir
		}, 4, true},
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
	fsyncs(s, 2, "Open of an empty dir")
	for i := 0; i < 3; i++ {
		if err := s.Append(acceptEntry(i, "t")); err != nil {
			t.Fatal(err)
		}
	}
	fsyncs(s, 2, "appends without fsync")
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	fsyncs(s, 4, "Compact")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	fsyncs(s, 6, "Close")
	if s, err = Open(dir, WithFsync(false)); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fsyncs(s, 1, "reopen of a closed dir")
}
