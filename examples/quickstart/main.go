// Quickstart: the paper's Listing 1 — a parallel-for smoothing loop — run
// through the OpenMP-style runtime twice: once over the native thread
// layer (the libGOMP stand-in) and once over the MCA layer, where worker
// threads are MRAPI nodes, runtime memory comes from MRAPI shared memory
// and critical sections are MRAPI mutexes. Same program, same results;
// only the substrate changes — the paper's portability pitch.
//
// The runtime is driven entirely through the public openmpmca package;
// only the modeled board and the MCA substrate construction come from
// in-module packages.
package main

import (
	"fmt"
	"io"
	"log"
	"math"
	"os"

	"openmpmca"
	"openmpmca/internal/core"
	"openmpmca/internal/platform"
)

// sum is the paper's Listing 1: b[i] = (a[i] + a[i-1]) / 2.
func sum(rt *openmpmca.Runtime, a, b []float32) error {
	return rt.ParallelFor(len(a)-1, func(i int) {
		b[i+1] = (a[i+1] + a[i]) / 2.0
	})
}

func main() {
	log.SetFlags(0)
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run smooths one signal on each layer and returns an error if either
// layer's mean differs from a sequential fold of the same loop.
func run(stdout io.Writer) error {
	const n = 1 << 16
	a := make([]float32, n)
	for i := range a {
		a[i] = float32(i % 97)
	}

	want := 0.0
	for i := 1; i < n; i++ {
		want += float64((a[i] + a[i-1]) / 2.0)
	}
	want /= n - 1

	board := platform.T4240RDB()
	fmt.Fprintf(stdout, "board: %s (%d hardware threads)\n\n", board.Name, board.HWThreads())

	for _, layerName := range []string{"native", "mca"} {
		var layer openmpmca.ThreadLayer
		if layerName == "mca" {
			l, err := core.NewMCALayer(board.NewSystem())
			if err != nil {
				return err
			}
			layer = l
		} else {
			layer = openmpmca.NewNativeLayer(board.HWThreads())
		}
		rt, err := openmpmca.New(openmpmca.WithLayer(layer))
		if err != nil {
			return err
		}
		err = smooth(stdout, rt, layerName, a, want)
		if cerr := rt.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// smooth runs Listing 1 and a mean reduction on rt, and checks the mean
// against want.
func smooth(stdout io.Writer, rt *openmpmca.Runtime, layerName string, a []float32, want float64) error {
	n := len(a)
	b := make([]float32, n)
	if err := sum(rt, a, b); err != nil {
		return err
	}

	// A reduction for good measure: mean of the smoothed signal.
	var mean float64
	if err := rt.Parallel(func(c *openmpmca.Context) {
		total := openmpmca.Reduce(c, n-1, 0.0,
			func(x, y float64) float64 { return x + y },
			func(lo, hi int) float64 {
				s := 0.0
				for i := lo; i < hi; i++ {
					s += float64(b[i+1])
				}
				return s
			})
		c.Master(func() { mean = total / float64(n-1) })
	}); err != nil {
		return err
	}
	if math.Abs(mean-want) > 1e-9*want {
		return fmt.Errorf("[%s] smoothed mean %.9f, sequential %.9f", layerName, mean, want)
	}

	st := rt.Stats().Snapshot()
	fmt.Fprintf(stdout, "[%s] %d threads (from %s), smoothed mean = %.4f\n",
		layerName, rt.NumThreads(), sourceOfThreads(layerName), mean)
	fmt.Fprintf(stdout, "[%s] runtime stats: %d regions, %d barriers, %d team-lease hits\n\n",
		layerName, st.Regions, st.Barriers, st.LeaseHits)
	return nil
}

func sourceOfThreads(layer string) string {
	if layer == "mca" {
		return "MRAPI metadata resource tree"
	}
	return "host processor count"
}
