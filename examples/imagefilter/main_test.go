package main

import (
	"strings"
	"testing"
)

// TestRun filters the full 640×480 frame; run fails unless the parallel
// edge energy matches the one-thread reference.
func TestRun(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatalf("%v\n%s", err, &out)
	}
	if !strings.Contains(out.String(), "verification: PASS") {
		t.Errorf("output missing the verification line:\n%s", &out)
	}
}
