// Command ompmca-npb regenerates the paper's Figure 4: the NAS parallel
// benchmarks (EP, CG, IS, MG, FT) on the modeled T4240RDB, comparing the
// MCA-backed OpenMP runtime against the native runtime from 1 to 24
// threads, reporting deterministic virtual-time execution times and
// speedups.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"

	"openmpmca/internal/core"
	"openmpmca/internal/npb"
	"openmpmca/internal/platform"
	"openmpmca/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ompmca-npb: ")
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run measures the requested Figure 4 panels and prints them to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ompmca-npb", flag.ContinueOnError)
	var (
		kernelFlag  = fs.String("kernel", "all", "kernel: EP, CG, IS, MG, FT or all")
		classFlag   = fs.String("class", "W", "problem class: S, W or A")
		threadsFlag = fs.String("threads", "1,2,4,8,12,16,20,24", "comma-separated team sizes")
		boardName   = fs.String("board", "t4240", "board model: t4240 or p4080")
		calibrate   = fs.Bool("calibrate", true, "scale the MCA layer's modeled management costs by host-measured EPCC ratios")
		traceFlag   = fs.Bool("trace", false, "print each kernel's construct profile (fork/barrier/reduction counts)")
		plot        = fs.Bool("plot", true, "draw the ASCII speedup chart under each panel")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	class, err := npb.ParseClass(*classFlag)
	if err != nil {
		return err
	}
	board, err := pickBoard(*boardName)
	if err != nil {
		return err
	}
	threads, err := parseInts(*threadsFlag)
	if err != nil {
		return err
	}

	kernels := npb.Kernels
	if *kernelFlag != "all" {
		kernels = []string{strings.ToUpper(*kernelFlag)}
	}

	opts := npb.Figure4Options{}
	if *calibrate {
		scales, err := npb.CalibrateMCAScales(board, maxOf(threads))
		if err != nil {
			return err
		}
		opts.Scales = &scales
		fmt.Fprintf(stdout, "EPCC-calibrated MCA cost factors (shared across kernels): fork %.2f, sync %.2f, reduction %.2f\n\n",
			scales.Fork, scales.Sync, scales.Reduction)
	}

	for _, name := range kernels {
		series, err := npb.MeasureFigure4Opts(board, name, class, threads, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprint(stdout, series.Render())
		if *plot {
			fmt.Fprint(stdout, series.Plot())
		}
		fmt.Fprintf(stdout, "max MCA-vs-native time gap: %.2f%%\n", series.MaxRelativeGap()*100)
		if *traceFlag {
			if err := printConstructProfile(stdout, board, name, class); err != nil {
				return err
			}
		}
		fmt.Fprintln(stdout)
	}
	return nil
}

// printConstructProfile runs the kernel once at 4 threads with the trace
// recorder attached and prints its construct counts — the parallel
// structure behind each Figure 4 panel.
func printConstructProfile(stdout io.Writer, board *platform.Board, kernelName string, class npb.Class) error {
	kern, err := npb.New(kernelName, class)
	if err != nil {
		return err
	}
	rec := trace.NewRecorder(1) // aggregates only; the ring can stay tiny
	rt, err := core.New(
		core.WithLayer(core.NewNativeLayer(board.HWThreads())),
		core.WithNumThreads(4),
		core.WithMonitor(rec),
	)
	if err != nil {
		return err
	}
	defer rt.Close()
	if _, err := kern.Run(rt); err != nil {
		return err
	}
	s := rec.Summary()
	fmt.Fprintf(stdout, "construct profile (4 threads): %d regions, %d barriers, %d reductions, %d singles, %.0f work units\n",
		s.Forks, s.Barriers, s.Reductions, s.Singles, s.UnitsCharged)
	return nil
}

func maxOf(xs []int) int {
	m := 1
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func pickBoard(name string) (*platform.Board, error) {
	switch strings.ToLower(name) {
	case "t4240", "t4240rdb":
		return platform.T4240RDB(), nil
	case "p4080", "p4080ds":
		return platform.P4080DS(), nil
	}
	return nil, fmt.Errorf("unknown board %q", name)
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad thread count %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no thread counts")
	}
	return out, nil
}
