// Command ompmca-validate runs the OpenMP validation suite (paper §6A)
// against the native and/or MCA-backed runtime, and executes the paper's
// broken-MRAPI-mutex regression: the fault that made the critical
// construct fail must be caught by the suite.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"openmpmca/internal/core"
	"openmpmca/internal/platform"
	"openmpmca/internal/validation"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ompmca-validate: ")
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run writes one line per check to stdout and returns an error counting
// the failed checks, if any.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ompmca-validate", flag.ContinueOnError)
	var (
		layerFlag = fs.String("layer", "both", "runtime under test: native, mca or both")
		reps      = fs.Int("reps", 3, "repetitions per test")
		threads   = fs.Int("threads", 8, "team size")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	boardModel := platform.T4240RDB()
	failures := 0

	runSuite := func(name string, mk func() (*core.Runtime, error)) error {
		fmt.Fprintf(stdout, "=== validation suite on %s layer (%d reps, %d threads) ===\n", name, *reps, *threads)
		outcomes, err := validation.RunAll(mk, *reps)
		if err != nil {
			return err
		}
		for _, o := range outcomes {
			status := "PASS"
			if !o.Passed() {
				status = "FAIL"
				failures++
			}
			fmt.Fprintf(stdout, "  %-22s %s  (%d/%d runs ok, crosscheck %v)", o.Name, status, o.Runs-o.Failures, o.Runs, o.CrossOK)
			if o.Detail != "" {
				fmt.Fprintf(stdout, "  [%s]", o.Detail)
			}
			fmt.Fprintln(stdout)
		}
		return nil
	}

	layer := strings.ToLower(*layerFlag)
	if layer == "native" || layer == "both" {
		if err := runSuite("native", func() (*core.Runtime, error) {
			return core.New(core.WithLayer(core.NewNativeLayer(boardModel.HWThreads())), core.WithNumThreads(*threads))
		}); err != nil {
			return err
		}
	}
	if layer == "mca" || layer == "both" {
		if err := runSuite("mca", func() (*core.Runtime, error) {
			l, err := core.NewMCALayer(boardModel.NewSystem())
			if err != nil {
				return nil, err
			}
			return core.New(core.WithLayer(l), core.WithNumThreads(*threads))
		}); err != nil {
			return err
		}
	}

	fmt.Fprintln(stdout, "=== §6A regression: non-functional MRAPI mutex must be detected ===")
	if err := validation.BrokenMutexRegression(boardModel); err != nil {
		fmt.Fprintf(stdout, "  FAIL: %v\n", err)
		failures++
	} else {
		fmt.Fprintln(stdout, "  PASS: injected mutex fault detected by the critical check; fixed layer passes")
	}

	if failures > 0 {
		return fmt.Errorf("%d failure(s)", failures)
	}
	fmt.Fprintln(stdout, "\nall validation checks passed")
	return nil
}
