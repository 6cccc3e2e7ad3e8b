package main

import (
	"strings"
	"testing"
)

// TestRun offloads all 24 blocks through MRAPI's async remote-memory
// requests; run fails unless every block comes back equal to the local
// FIR.
func TestRun(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatalf("%v\n%s", err, &out)
	}
	for _, want := range []string{
		"host partition: OpenMP team of 8",
		"accel -> host: 24/24 blocks returned",
		"verification: PASS",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, &out)
		}
	}
}
