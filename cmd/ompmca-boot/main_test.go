package main

import (
	"strings"
	"testing"
)

// TestRun walks both boots with their logs (E5): the flash root loses
// its file across a reset, the NFS root keeps its file across a reboot,
// and Figure 3 is drawn from the booted board.
func TestRun(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-v"}, &out); err != nil {
		t.Fatalf("%v\n%s", err, &out)
	}
	for _, want := range []string{
		"toolchain.patch is GONE",
		"mca-libgomp.so intact",
		"tftp uImage-omp:",
		"NFS export: /srv/nfs/t4240 |",
		"board state: up (24 hw threads online)",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, &out)
		}
	}
}
