// Imagefilter parallelizes an embedded image-processing pipeline — the
// workload class the paper's motivation cites (ultrasound image processing
// on multicore embedded systems, ref [33]): a synthetic B-mode-style frame
// is denoised with a 5×5 Gaussian blur and edges are extracted with a
// Sobel operator, both workshared over the MCA-backed runtime, with a
// sequential re-computation verifying the parallel result.
package main

import (
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"os"

	"openmpmca/internal/core"
	"openmpmca/internal/platform"
)

const (
	width  = 640
	height = 480
)

type image []float64 // row-major width×height

func (im image) at(x, y int) float64 { return im[y*width+x] }

// synthFrame builds a deterministic speckled test frame with a few bright
// reflectors, loosely shaped like an ultrasound B-scan.
func synthFrame() image {
	im := make(image, width*height)
	seed := uint64(12345)
	next := func() float64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return float64(seed>>33) / float64(1<<31)
	}
	for y := 0; y < height; y++ {
		for x := 0; x < width; x++ {
			v := 0.2 * next() // speckle
			for _, r := range [][3]float64{{160, 120, 40}, {400, 300, 60}, {520, 100, 25}} {
				dx, dy := float64(x)-r[0], float64(y)-r[1]
				if d := math.Hypot(dx, dy); d < r[2] {
					v += 0.8 * (1 - d/r[2])
				}
			}
			im[y*width+x] = v
		}
	}
	return im
}

// gauss5 is a separable 5-tap Gaussian kernel.
var gauss5 = [5]float64{1.0 / 16, 4.0 / 16, 6.0 / 16, 4.0 / 16, 1.0 / 16}

// blurRows convolves horizontally, rows workshared.
func blurRows(c *core.Context, src, dst image) {
	c.ForRange(height, core.LoopOpts{Schedule: core.ScheduleStatic}, func(lo, hi int) {
		for y := lo; y < hi; y++ {
			for x := 0; x < width; x++ {
				acc := 0.0
				for k := -2; k <= 2; k++ {
					xx := clamp(x+k, 0, width-1)
					acc += gauss5[k+2] * src.at(xx, y)
				}
				dst[y*width+x] = acc
			}
		}
	})
}

// blurCols convolves vertically.
func blurCols(c *core.Context, src, dst image) {
	c.ForRange(height, core.LoopOpts{Schedule: core.ScheduleStatic}, func(lo, hi int) {
		for y := lo; y < hi; y++ {
			for x := 0; x < width; x++ {
				acc := 0.0
				for k := -2; k <= 2; k++ {
					yy := clamp(y+k, 0, height-1)
					acc += gauss5[k+2] * src.at(x, yy)
				}
				dst[y*width+x] = acc
			}
		}
	})
}

// sobel extracts gradient magnitude; interior rows workshared dynamically
// (the guard rows make the work slightly irregular).
func sobel(c *core.Context, src, dst image) {
	c.ForRange(height, core.LoopOpts{Schedule: core.ScheduleDynamic, Chunk: 16}, func(lo, hi int) {
		for y := lo; y < hi; y++ {
			if y == 0 || y == height-1 {
				continue
			}
			for x := 1; x < width-1; x++ {
				gx := -src.at(x-1, y-1) - 2*src.at(x-1, y) - src.at(x-1, y+1) +
					src.at(x+1, y-1) + 2*src.at(x+1, y) + src.at(x+1, y+1)
				gy := -src.at(x-1, y-1) - 2*src.at(x, y-1) - src.at(x+1, y-1) +
					src.at(x-1, y+1) + 2*src.at(x, y+1) + src.at(x+1, y+1)
				dst[y*width+x] = math.Hypot(gx, gy)
			}
		}
	})
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// pipeline runs blur+sobel through the runtime and returns the edge
// energy (sum of gradient magnitudes), the frame checksum used for
// verification.
func pipeline(rt *core.Runtime, frame image) (float64, error) {
	tmp := make(image, len(frame))
	blurred := make(image, len(frame))
	edges := make(image, len(frame))
	var energy float64
	err := rt.Parallel(func(c *core.Context) {
		blurRows(c, frame, tmp)
		blurCols(c, tmp, blurred)
		sobel(c, blurred, edges)
		total := core.Reduce(c, len(edges), 0.0,
			func(a, b float64) float64 { return a + b },
			func(lo, hi int) float64 {
				s := 0.0
				for i := lo; i < hi; i++ {
					s += edges[i]
				}
				return s
			})
		c.Master(func() { energy = total })
	})
	return energy, err
}

func main() {
	log.SetFlags(0)
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run filters one frame on 8 MCA worker threads and returns an error if
// the result differs from a one-thread run of the same pipeline.
func run(stdout io.Writer) error {
	frame := synthFrame()

	board := platform.T4240RDB()
	layer, err := core.NewMCALayer(board.NewSystem())
	if err != nil {
		return err
	}
	rt, err := core.New(core.WithLayer(layer), core.WithNumThreads(8))
	if err != nil {
		return err
	}
	defer rt.Close()

	parallel, err := pipeline(rt, frame)
	if err != nil {
		return err
	}

	// Sequential verification on a one-thread team.
	seq, err := core.New(core.WithLayer(core.NewNativeLayer(1)), core.WithNumThreads(1))
	if err != nil {
		return err
	}
	defer seq.Close()
	reference, err := pipeline(seq, frame)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "frame: %dx%d, 8 MCA worker threads on modeled %s\n", width, height, board.Name)
	fmt.Fprintf(stdout, "edge energy: parallel %.6f  sequential %.6f\n", parallel, reference)
	if math.Abs(parallel-reference) > 1e-6*math.Abs(reference) {
		return errors.New("VERIFICATION FAILED: parallel and sequential pipelines disagree")
	}
	fmt.Fprintln(stdout, "verification: PASS (parallel result matches sequential reference)")
	return nil
}
