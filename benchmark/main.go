// Command benchmark is the repository's full-stack benchmark: five
// workloads over an in-process ompmca-serve (and, for omp_constructs,
// the bare OpenMP runtime on both thread layers), end-to-end metrics
// measured with tracing off, and a per-layer ledger built purely from
// outside in a separate traced run. README.md is the manual;
// BENCHMARK.json at the repository root is the contract it is run by.
//
//	bash benchmark/run.sh                          # all five workloads, both runs
//	bash benchmark/run.sh -workload svc_small -seed 7 -seconds 15 -trace 0
//	bash benchmark/run.sh -selfcheck               # the suite twice, gaps vs bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
)

// defaultSeconds is the timed phase when -seconds is not given:
// BENCHMARK.json's run_seconds, so that a run by hand reads like the
// driver's.
const defaultSeconds = 15

func main() {
	var (
		workload  = flag.String("workload", "", "run one workload and end with the one-line JSON result (default: all five, both runs each)")
		seed      = flag.Uint64("seed", 1, "input generator seed: equal seeds give identical inputs")
		seconds   = flag.Float64("seconds", defaultSeconds, "length of the timed phase")
		trace     = flag.Int("trace", 0, "with -workload: 0 measures the end-to-end metrics untraced, 1 the per-layer ledger")
		out       = flag.String("out", "benchmark/out", "directory for state dirs and trace-<workload>.json (created; must be on a real filesystem)")
		selfcheck = flag.Bool("selfcheck", false, "run the suite twice in alternating workload order and hold each end-to-end gap to its bound")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected arguments %v", flag.Args()))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("want -seconds > 0 and -trace 0 or 1"))
	}
	cfg := config{seed: *seed, seconds: *seconds, clients: min(runtime.NumCPU(), 4), out: *out, shape: fullShape}
	fmt.Printf("# openmpmca benchmark: seed %d, %d closed-loop clients, nproc %d, %s, timed phase %gs\n",
		cfg.seed, cfg.clients, runtime.NumCPU(), runtime.Version(), cfg.seconds)

	switch {
	case *selfcheck:
		if !runSelfcheck(cfg) {
			os.Exit(1)
		}
	case *workload != "":
		cfg.workload, cfg.trace = *workload, *trace == 1
		rep, err := runWorkload(cfg)
		if err != nil {
			fatal(err)
		}
		rep.print(cfg)
		rep.printResultLine(cfg)
		if rep.failed > 0 {
			os.Exit(1)
		}
	default:
		failed := 0
		for _, w := range workloadNames {
			for _, traced := range []bool{false, true} {
				cfg.workload, cfg.trace = w, traced
				rep, err := runWorkload(cfg)
				if err != nil {
					fatal(err)
				}
				rep.print(cfg)
				failed += rep.failed
			}
		}
		if failed > 0 {
			fmt.Printf("FAILED: %d operations\n", failed)
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// print writes every metric of the run by name with its unit.
func (r *report) print(cfg config) {
	kind, defs := "end-to-end (untraced)", endToEnd
	if cfg.trace {
		kind, defs = "per-layer (traced)", perLayer
	}
	fmt.Printf("\n== %s · %s · clients %d · input digest %s\n", r.workload, kind, r.clients, r.digest)
	fmt.Printf("attempted %d  failed %d  failed_frac %g\n", r.attempted, r.failed, float64(r.failed)/float64(max(r.attempted, 1)))
	for _, e := range r.errs {
		fmt.Println("  error:", e)
	}
	for _, n := range r.notes {
		fmt.Println(n)
	}
	for _, d := range defs {
		fmt.Printf("%-36s %14.4f %s\n", d.name, r.metrics[d.name], d.unit)
	}
	if cfg.trace && r.workload != wOMP {
		fmt.Println("spans written to", tracePath(cfg.out, r.workload))
	}
}

// printResultLine ends the output with the one JSON object the driver
// reads.
func (r *report) printResultLine(cfg config) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	ms := make(map[string]value, len(defs))
	for _, d := range defs {
		ms[d.name] = value{r.metrics[d.name], d.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, ms})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// bounds are the regression bounds of BENCHMARK.json, which -selfcheck
// holds two runs of the same code to.
var bounds = map[string]float64{
	"setup_s":    0.25,
	"ops_per_s":  0.25,
	"op_p50_ms":  0.25,
	"op_p90_ms":  0.25,
	"restart_ms": 0.25,
}

// runSelfcheck runs every workload's untraced run twice, the second pass
// in reverse workload order, and prints each end-to-end metric's relative
// gap beside its bound. It reports whether every gap held.
func runSelfcheck(cfg config) bool {
	passes := [2]map[string]*report{{}, {}}
	for p, order := range [][]string{workloadNames, reversed(workloadNames)} {
		for _, w := range order {
			cfg.workload = w
			rep, err := runWorkload(cfg)
			if err != nil {
				fatal(err)
			}
			rep.print(cfg)
			passes[p][w] = rep
		}
	}
	ok := true
	fmt.Printf("\n== selfcheck: two runs of the same code\n%-16s %-12s %12s %12s %8s %8s\n", "workload", "metric", "run 1", "run 2", "gap", "bound")
	for _, w := range workloadNames {
		a, b := passes[0][w], passes[1][w]
		if a.failed+b.failed > 0 {
			ok = false
		}
		for _, d := range endToEnd {
			gap := relGap(a.metrics[d.name], b.metrics[d.name])
			verdict := ""
			if gap > bounds[d.name] {
				verdict, ok = "  BREACH", false
			}
			fmt.Printf("%-16s %-12s %12.4f %12.4f %7.1f%% %7.0f%%%s\n", w, d.name, a.metrics[d.name], b.metrics[d.name], 100*gap, 100*bounds[d.name], verdict)
		}
	}
	fmt.Println(strings.Repeat("-", 72))
	return ok
}

func reversed(xs []string) []string {
	r := slices.Clone(xs)
	slices.Reverse(r)
	return r
}
