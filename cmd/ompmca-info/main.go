// Command ompmca-info renders the platform artifacts of the paper's §4:
// the T4240RDB block diagram (Figure 1), a hypervisor partitioning demo
// (Figure 2), the T4240-vs-P4080 comparison (§4C), the MRAPI metadata
// resource tree the runtime reads (§5B4), and the runtime's scheduler
// counters from a sample tasking workload.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"openmpmca"
	"openmpmca/internal/core"
	"openmpmca/internal/platform"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ompmca-info: ")
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run renders the selected artifacts (all of them when no section flag
// is given) to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ompmca-info", flag.ContinueOnError)
	var (
		diagram    = fs.Bool("diagram", false, "render the board block diagram (Figure 1)")
		hypervisor = fs.Bool("hypervisor", false, "render a hypervisor partition demo (Figure 2)")
		compare    = fs.Bool("compare", false, "render the T4240 vs P4080 comparison (§4C)")
		tree       = fs.Bool("tree", false, "render the MRAPI metadata resource tree")
		stats      = fs.Bool("stats", false, "run a sample tasking workload and print runtime scheduler counters")
		threads    = fs.Int("threads", 8, "team size for -stats")
		jsonOut    = fs.Bool("json", false, "with -stats, emit the unified openmpmca.Snapshot as NDJSON (one line per layer)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	all := !*diagram && !*hypervisor && !*compare && !*tree && !*stats

	t4 := platform.T4240RDB()
	if *diagram || all {
		fmt.Fprintln(stdout, "=== Figure 1: board block diagram ===")
		fmt.Fprintln(stdout, t4.BlockDiagram())
	}
	if *hypervisor || all {
		fmt.Fprintln(stdout, "=== Figure 2: embedded hypervisor partitions ===")
		hv, err := platform.NewHypervisor(t4)
		if err != nil {
			return err
		}
		for _, p := range []struct {
			name  string
			guest platform.GuestOS
			cpus  []int
			memMB int
			io    []string
		}{
			{"control-plane", platform.GuestLinux, []int{0, 1, 2, 3, 4, 5, 6, 7}, 2048, []string{"eth0"}},
			{"data-plane", platform.GuestBareMetal, []int{8, 9, 10, 11, 12, 13, 14, 15}, 2048, []string{"dpaa0"}},
			{"realtime", platform.GuestRTOS, []int{16, 17, 18, 19}, 1024, nil},
		} {
			if _, err := hv.CreatePartition(p.name, p.guest, p.cpus, p.memMB, p.io...); err != nil {
				return fmt.Errorf("partition %s: %w", p.name, err)
			}
			if err := hv.Start(p.name); err != nil {
				return err
			}
		}
		fmt.Fprintln(stdout, hv.Render())
	}
	if *compare || all {
		fmt.Fprintln(stdout, "=== §4C: T4240RDB vs P4080DS ===")
		fmt.Fprintln(stdout, platform.Compare(t4, platform.P4080DS()))
	}
	if *tree || all {
		fmt.Fprintln(stdout, "=== MRAPI metadata resource tree (mrapi_resources_get) ===")
		fmt.Fprintln(stdout, t4.ResourceTree().Render())
	}
	if *stats || all {
		if !*jsonOut {
			fmt.Fprintln(stdout, "=== runtime scheduler counters (task workload) ===")
		}
		return printStats(stdout, t4, *threads, *jsonOut)
	}
	return nil
}

// printStats runs the same recursive tasking workload on the native and the
// MCA-backed runtime and prints each one's counter snapshot, making the
// work-stealing scheduler's behavior (local pops vs steals vs failed
// probes) observable from the command line. With jsonOut it emits one
// NDJSON line per layer carrying the unified openmpmca.Snapshot — the
// same shape the job service serves on /v1/stats.
func printStats(w io.Writer, board *platform.Board, threads int, jsonOut bool) error {
	layers := []struct {
		name  string
		layer func() (openmpmca.ThreadLayer, error)
	}{
		{"native", func() (openmpmca.ThreadLayer, error) {
			return openmpmca.NewNativeLayer(board.HWThreads()), nil
		}},
		{"mca", func() (openmpmca.ThreadLayer, error) {
			return core.NewMCALayer(board.NewSystem())
		}},
	}
	for _, lc := range layers {
		l, err := lc.layer()
		if err != nil {
			return err
		}
		rt, err := openmpmca.New(openmpmca.WithLayer(l), openmpmca.WithNumThreads(threads))
		if err != nil {
			return err
		}
		err = rt.Parallel(func(c *openmpmca.Context) {
			c.SingleNoWait(func() {
				var fib func(c *openmpmca.Context, n int) int
				fib = func(c *openmpmca.Context, n int) int {
					if n < 2 {
						return n
					}
					var a, b int
					c.Taskgroup(func() {
						c.Task(func() { a = fib(c, n-1) })
						b = fib(c, n-2)
					})
					return a + b
				}
				fib(c, 16)
			})
		})
		if err != nil {
			return err
		}
		s := rt.Stats().Snapshot()
		if jsonOut {
			line := struct {
				Layer    string             `json:"layer"`
				Snapshot openmpmca.Snapshot `json:"snapshot"`
			}{lc.name, openmpmca.Snapshot{Core: &s}}
			if err := json.NewEncoder(w).Encode(line); err != nil {
				return err
			}
		} else {
			fmt.Fprintf(w, "%-6s  queue=%s regions=%d threads=%d barriers=%d tasks=%d\n",
				lc.name, rt.TaskQueueKind(), s.Regions, s.Threads, s.Barriers, s.Tasks)
			fmt.Fprintf(w, "        local-pops=%d steals=%d steal-fails=%d\n",
				s.LocalPops, s.Steals, s.StealFails)
		}
		if err := rt.Close(); err != nil {
			return err
		}
	}
	return nil
}
