package main

import (
	"io"
	"log"
	"testing"
	"time"
)

// TestRunSmoke drives the full demo — clean graph plus the
// fault-injected one — at a reduced size.
func TestRunSmoke(t *testing.T) {
	if err := run(24, 16, 3, 500*time.Microsecond, false, log.New(io.Discard, "", 0)); err != nil {
		t.Fatal(err)
	}
}

// TestRunRequirePeerSteals is the mesh-smoke configuration: serial
// domains, blocker imbalance, and a hard failure unless at least one
// steal rode a direct peer link.
func TestRunRequirePeerSteals(t *testing.T) {
	if testing.Short() {
		t.Skip("blocker-paced demo run")
	}
	if err := run(24, 16, 3, 500*time.Microsecond, true, log.New(io.Discard, "", 0)); err != nil {
		t.Fatal(err)
	}
}

func TestSeqCountDeterministic(t *testing.T) {
	if a, b := seqCount(10_000), seqCount(10_000); a != b || a == 0 {
		t.Fatalf("seqCount unstable or degenerate: %d vs %d", a, b)
	}
}

func TestFibIter(t *testing.T) {
	want := map[uint32]uint64{0: 0, 1: 1, 2: 1, 10: 55, 30: 832040}
	for n, v := range want {
		if got := fibIter(n); got != v {
			t.Errorf("fibIter(%d) = %d, want %d", n, got, v)
		}
	}
}
