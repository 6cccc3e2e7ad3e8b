package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"openmpmca/internal/chaos"
)

// TestRunKillMidGraph runs the promoted CI scenario through the command
// and decodes its -json verdict.
func TestRunKillMidGraph(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-kill-mid-graph", "-json"}, &out); err != nil {
		t.Fatalf("%v\n%s", err, &out)
	}
	var results []chaos.Result
	if err := json.Unmarshal([]byte(out.String()), &results); err != nil {
		t.Fatalf("%v:\n%s", err, &out)
	}
	if len(results) != 1 || !results[0].OK() || results[0].Settled != results[0].Submitted {
		t.Fatalf("results = %+v, want one passing campaign with every unit settled", results)
	}
}

// TestCrashKeepsNamedStateDir pins that -crash removes only a state dir
// it created: a caller's dir survives a failed run, even one whose name
// looks like the run's own temp dirs.
func TestCrashKeepsNamedStateDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ompmca-crash-keep")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(t.TempDir(), "no-such-serve")
	var out strings.Builder
	if err := run([]string{"-crash", "-serve-bin", missing, "-state-dir", dir}, &out); err == nil {
		t.Fatalf("a -crash run against a missing server binary passed:\n%s", &out)
	}
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("the named state dir is gone after the run: %v", err)
	}
}
