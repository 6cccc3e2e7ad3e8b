package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// smokeShape keeps every part of a run and shrinks each, so that the
// smoke test covers the full suite in seconds.
var smokeShape = shape{
	segments: 2,
	warmup:   map[string]int{wOMP: 20, wSmall: 16, wDurable: 16, wPayload: 2, wFanout: 2},
	restarts: map[string]int{wOMP: 2, wSmall: 1, wDurable: 1, wPayload: 1, wFanout: 1},
	rung:     30 * time.Millisecond,
}

// TestSmoke runs every workload, untraced and traced, with a 200 ms
// timed phase. It asserts correctness and metric-name completeness only:
// no timing assertions, so a slow host cannot fail it.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			cfg := config{workload: w, seed: 1, seconds: 0.2, trace: traced, clients: 2, out: out, shape: smokeShape}
			rep, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			if rep.attempted == 0 || rep.failed != 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d: %v", w, traced, rep.attempted, rep.failed, rep.errs)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(rep.metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, traced, len(rep.metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := rep.metrics[d.name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w, traced, d.name)
				}
				if !traced && v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, d.name, v)
				}
			}
			if traced && w != wOMP {
				if _, err := os.Stat(tracePath(out, w)); err != nil {
					t.Errorf("%s: no trace file: %v", w, err)
				}
			}
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the harness's own metric,
// workload and bound tables in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", spec.Paths)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, want %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloadNames[i])
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i, g := range got {
			if g.Name != want[i].name || g.Unit != want[i].unit {
				t.Errorf("%s[%d] = %s (%s), want %s (%s)", kind, i, g.Name, g.Unit, want[i].name, want[i].unit)
			}
			if g.Better != "lower" && g.Better != "higher" {
				t.Errorf("%s: better = %q", g.Name, g.Better)
			}
			if bounded && (g.Bound == nil || *g.Bound != bounds[g.Name]) {
				t.Errorf("%s: bound %v, harness says %v", g.Name, g.Bound, bounds[g.Name])
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s: a per-layer metric has no bound", g.Name)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
}
