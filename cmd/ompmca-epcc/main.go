// Command ompmca-epcc regenerates the paper's Table I: EPCC
// synchronization-overhead ratios of the MCA-backed OpenMP runtime versus
// the native runtime, per directive and thread count, on the modeled
// T4240RDB.
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
	"openmpmca/internal/epcc"
	"openmpmca/internal/platform"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ompmca-epcc: ")
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run measures Table I (and the schedule and array sweeps when asked)
// and prints it to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ompmca-epcc", flag.ContinueOnError)
	var (
		threadsFlag = fs.String("threads", "4,8,12,16,20,24", "comma-separated team sizes")
		inner       = fs.Int("inner", 128, "construct executions per sample")
		outer       = fs.Int("outer", 7, "samples per cell (median reported)")
		delay       = fs.Int("delay", 64, "busy-delay length inside constructs")
		boardName   = fs.String("board", "t4240", "board model: t4240 or p4080")
		absolute    = fs.Bool("absolute", false, "also print absolute overheads (µs)")
		sched       = fs.Bool("sched", false, "also run the schedbench schedule-overhead sweep")
		array       = fs.Bool("array", false, "also run the arraybench data-environment sweep")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *inner < 1:
		return fmt.Errorf("-inner %d: want >= 1", *inner)
	case *outer < 1:
		return fmt.Errorf("-outer %d: want >= 1", *outer)
	case *delay < 0:
		return fmt.Errorf("-delay %d: want >= 0", *delay)
	}

	board, err := pickBoard(*boardName)
	if err != nil {
		return err
	}
	threads, err := parseInts(*threadsFlag)
	if err != nil {
		return err
	}
	opt := epcc.Options{InnerReps: *inner, OuterReps: *outer, DelayLength: *delay}

	res, err := epcc.MeasureTable1(board, opt, threads)
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, res.Render())
	if *sched {
		for _, layerName := range []string{"native", "mca"} {
			rt, err := runtimeFor(board, layerName, threads[len(threads)-1])
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "\n[%s layer] ", layerName)
			fmt.Fprint(stdout, epcc.NewSuite(rt, opt).MeasureScheduleTable().Render())
			_ = rt.Close()
		}
	}
	if *array {
		for _, layerName := range []string{"native", "mca"} {
			rt, err := runtimeFor(board, layerName, threads[len(threads)-1])
			if err != nil {
				return err
			}
			table, err := epcc.NewSuite(rt, opt).MeasureArrayTable()
			_ = rt.Close()
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "\n[%s layer] ", layerName)
			fmt.Fprint(stdout, table.Render())
		}
	}
	if *absolute {
		fmt.Fprintln(stdout, "\nAbsolute overheads (µs, median):")
		for _, c := range res.Constructs {
			fmt.Fprintf(stdout, "%-14s native:", c)
			for _, v := range res.NativeUS[c] {
				fmt.Fprintf(stdout, "%9.2f", v)
			}
			fmt.Fprintf(stdout, "\n%-14s mca:   ", c)
			for _, v := range res.MCAUS[c] {
				fmt.Fprintf(stdout, "%9.2f", v)
			}
			fmt.Fprintln(stdout)
		}
	}
	return nil
}

func runtimeFor(board *platform.Board, layerName string, threads int) (*core.Runtime, error) {
	var layer core.ThreadLayer
	if layerName == "mca" {
		l, err := core.NewMCALayer(board.NewSystem())
		if err != nil {
			return nil, err
		}
		layer = l
	} else {
		layer = core.NewNativeLayer(board.HWThreads())
	}
	return core.New(core.WithLayer(layer), core.WithNumThreads(threads))
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
