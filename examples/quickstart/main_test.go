package main

import (
	"strings"
	"testing"
)

// TestRun runs Listing 1 on both layers; run fails if either layer's
// mean differs from the sequential fold.
func TestRun(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatalf("%v\n%s", err, &out)
	}
	for _, want := range []string{
		"[native] 24 threads (from host processor count)",
		"[mca] 24 threads (from MRAPI metadata resource tree)",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, &out)
		}
	}
}
