package main

import (
	"strings"
	"testing"
)

// TestRun is E6 at its normal size: the suite passes on both layers and
// the broken-mutex regression is caught.
func TestRun(t *testing.T) {
	var out strings.Builder
	if err := run(nil, &out); err != nil {
		t.Fatalf("%v\n%s", err, &out)
	}
	for _, want := range []string{
		"validation suite on native layer",
		"validation suite on mca layer",
		"PASS: injected mutex fault detected",
		"all validation checks passed",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, &out)
		}
	}
}
