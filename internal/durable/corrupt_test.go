package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// writeWal assembles a raw wal image from entries and writes it as the
// given generation's journal, bypassing the Store so tests control the
// exact bytes on disk.
func writeWal(t *testing.T, dir string, gen uint64, entries []Entry, mutate func([]byte) []byte) {
	t.Helper()
	var img []byte
	for _, e := range entries {
		frame, err := encodeEntry(e)
		if err != nil {
			t.Fatal(err)
		}
		img = append(img, frame...)
	}
	if mutate != nil {
		img = mutate(img)
	}
	path := filepath.Join(dir, fmt.Sprintf("wal-%06d.log", gen))
	if err := os.WriteFile(path, img, 0o600); err != nil {
		t.Fatal(err)
	}
}

func nEntries(n int) []Entry {
	out := make([]Entry, 0, 2*n)
	for i := 0; i < n; i++ {
		out = append(out, Entry{Op: OpAccept, ID: fmt.Sprintf("j-%d", i),
			Tenant: "t", Name: "echo", Arg: []byte{byte(i)}, At: int64(i + 1)})
	}
	return out
}

// TestJournalCorruption drives the three damage shapes the recovery
// contract names: a tail truncated mid-frame, a bit-flipped record, and
// a trailing garbage run. Each must recover exactly the last good
// prefix — never fewer records, never a fabricated one.
func TestJournalCorruption(t *testing.T) {
	cases := []struct {
		name       string
		mutate     func([]byte) []byte
		want       int // jobs recovered
		expectDrop bool
	}{
		{"intact", nil, 8, false},
		{"truncated-tail", func(b []byte) []byte {
			return b[:len(b)-7] // mid-frame cut: last record torn
		}, 7, true},
		{"truncated-header", func(b []byte) []byte {
			return b[:len(b)-1]
		}, 7, true},
		{"bit-flip-last-record", func(b []byte) []byte {
			b[len(b)-3] ^= 0x40
			return b
		}, 7, true},
		{"trailing-garbage", func(b []byte) []byte {
			return append(b, 0xDE, 0xAD, 0xBE, 0xEF, 0x01)
		}, 8, true},
		{"empty", func(b []byte) []byte { return nil }, 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeWal(t, dir, 1, nEntries(8), tc.mutate)
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			got := s.Recovered()
			if len(got.Jobs) != tc.want {
				t.Fatalf("recovered %d jobs, want %d", len(got.Jobs), tc.want)
			}
			for i := 0; i < tc.want; i++ {
				if got.Jobs[fmt.Sprintf("j-%d", i)] == nil {
					t.Fatalf("prefix job j-%d missing", i)
				}
			}
			if tc.expectDrop && s.Stats().DroppedTailBytes == 0 {
				t.Fatal("tail was dropped but DroppedTailBytes is 0")
			}
		})
	}
}

// TestBitFlipMidJournal flips a byte inside an early record: replay
// must stop there, keeping only the records before it — the "last good
// prefix" is a prefix, not a sieve.
func TestBitFlipMidJournal(t *testing.T) {
	dir := t.TempDir()
	entries := nEntries(8)
	firstLen := func() int {
		frame, _ := encodeEntry(entries[0])
		return len(frame)
	}()
	writeWal(t, dir, 1, entries, func(b []byte) []byte {
		b[firstLen+frameHeaderLen+2] ^= 0x01 // damage record 1's payload
		return b
	})
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got := s.Recovered()
	if len(got.Jobs) != 1 {
		t.Fatalf("recovered %d jobs, want 1 (records after the flip are unreachable)", len(got.Jobs))
	}
}

// TestTornSnapshotFallsBack tears the newest snapshot: recovery must
// fall back to the previous generation's snapshot and rebuild the full
// state from the retained wals.
func TestTornSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	// Build a real two-generation layout through the store itself.
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range nEntries(4) {
		if err := s.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil { // gen 2: snap-2 holds j-0..3
		t.Fatal(err)
	}
	if err := s.Append(Entry{Op: OpAccept, ID: "j-100", Tenant: "t", Name: "echo"}); err != nil {
		t.Fatal(err)
	}
	gen := s.Stats().Generation
	// Abandon without Close (crash), then tear the newest snapshot.
	snap := filepath.Join(dir, fmt.Sprintf("snap-%06d.db", gen))
	img, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snap, img[:len(img)/2], 0o600); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := s2.Recovered()
	if len(got.Jobs) != 5 {
		t.Fatalf("recovered %d jobs after torn snapshot, want 5", len(got.Jobs))
	}
	if got.Jobs["j-100"] == nil {
		t.Fatal("post-compaction job lost in the fallback path")
	}
	if s2.Stats().TornSnapshots == 0 {
		t.Fatal("torn snapshot not counted")
	}
}

// FuzzJournalReplay hammers the frame scanner with arbitrary bytes: it
// must never panic, must account for every byte as either good prefix
// or dropped tail, and every accepted entry must survive an encode and
// decode unchanged. The corpus mixes binary and version-1 JSON frames.
func FuzzJournalReplay(f *testing.F) {
	var valid, v1 []byte
	for _, e := range nEntries(3) {
		valid = append(valid, binEntry(f, e)...)
		v1 = append(v1, v1Entry(f, e)...)
	}
	settle := Entry{Op: OpSettle, ID: "j-0", At: 7, Status: StatusSucceeded, Result: []byte("ok"), Recovered: true}
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	flipped := append([]byte(nil), valid...)
	flipped[10] ^= 0xFF
	f.Add(flipped)
	f.Add(v1)
	f.Add(append(append([]byte(nil), v1...), binEntry(f, settle)...))
	f.Add(v1Entry(f, Entry{Op: "bogus", ID: "j-9"}))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 4, 1, 2, 3, 4, 9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		rep := replayJournal(data)
		if rep.goodBytes+rep.lostBytes != int64(len(data)) {
			t.Fatalf("byte accounting: %d good + %d lost != %d total",
				rep.goodBytes, rep.lostBytes, len(data))
		}
		if rep.goodBytes < 0 || rep.goodBytes > int64(len(data)) {
			t.Fatalf("goodBytes %d out of range", rep.goodBytes)
		}
		st := newState()
		for _, e := range rep.entries {
			if e.Op == "" || e.ID == "" {
				t.Fatalf("accepted entry without op/id: %+v", e)
			}
			frame, err := encodeEntry(e)
			if err != nil {
				t.Fatalf("accepted entry does not re-encode: %v", err)
			}
			payload, next, ok := readFrame(frame, 0)
			got, dok := decodeEntry(payload)
			if !ok || next != len(frame) || !dok || !sameEntry(got, e) {
				t.Fatalf("entry changed across encode/decode:\n in %+v\nout %+v", e, got)
			}
			st.apply(e)
		}
		// Replaying the same entries again must be a fixed point.
		before := len(st.Jobs)
		for _, e := range rep.entries {
			st.apply(e)
		}
		if len(st.Jobs) != before {
			t.Fatal("second replay of the same entries changed the state")
		}
	})
}
