package main

import (
	"encoding/json"
	"strings"
	"testing"

	"openmpmca"
)

// TestRun renders every artifact: Figure 1's three clusters of the
// 24-thread board (E3), Figure 2's three running partitions (E4), the
// §4C comparison (E7), the MRAPI resource tree and the scheduler
// counters of both layers.
func TestRun(t *testing.T) {
	var out strings.Builder
	if err := run(nil, &out); err != nil {
		t.Fatalf("%v\n%s", err, &out)
	}
	for _, want := range []string{
		"T4240RDB — 12× e6500 @ 1.8 GHz (24 hardware threads, 28nm)",
		"+-- cluster 2 ",
		"| partition control-plane guest=Embedded Linux  running",
		"| partition data-plane   guest=Bare-Metal      running",
		"| partition realtime     guest=RTOS            running",
		"unassigned: 4 cpus, 1024 MB",
		"hw threads             24                     8",
		"cpu23 [hwthread]",
		"native  queue=",
		"mca     queue=",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, &out)
		}
	}
}

// TestRunStatsJSON pins -stats -json: one NDJSON snapshot per layer,
// each counting the workload's tasks.
func TestRunStatsJSON(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-stats", "-json", "-threads", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d NDJSON lines, want 2:\n%s", len(lines), &out)
	}
	for i, want := range []string{"native", "mca"} {
		var line struct {
			Layer    string             `json:"layer"`
			Snapshot openmpmca.Snapshot `json:"snapshot"`
		}
		if err := json.Unmarshal([]byte(lines[i]), &line); err != nil {
			t.Fatalf("line %d: %v: %s", i, err, lines[i])
		}
		if line.Layer != want || line.Snapshot.Core == nil || line.Snapshot.Core.Tasks == 0 {
			t.Errorf("line %d = %s, want layer %s with tasks counted", i, lines[i], want)
		}
	}
}
