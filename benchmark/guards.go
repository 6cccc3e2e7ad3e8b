package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// Steadiness guards: two host references taken before and after every
// workload. If the host changed speed under the run, or its "disk" does
// not really flush, the workload is marked unsteady in the output rather
// than silently reported.
const (
	maxCalibDrift = 0.20                  // CPU or fsync drift beyond this marks the run unsteady
	minRawFsync   = 20 * time.Microsecond // below this the filesystem is tmpfs or flushes are no-ops
)

var spinSink uint64

// cpuCalib is the median time, in ms, of a fixed xorshift spin: a CPU
// speed reference independent of the program under test.
func cpuCalib() float64 {
	var runs []float64
	for r := 0; r < 5; r++ {
		x := uint64(88172645463325252)
		t0 := time.Now()
		for i := 0; i < 4_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		runs = append(runs, msSince(t0))
		spinSink += x
	}
	return median(runs)
}

// rawFsync is the median time, in ms, of a 256-byte write plus fsync on
// a plain file in dir: what one durable record costs on this host before
// the journal adds anything.
func rawFsync(dir string) (float64, error) {
	f, err := os.CreateTemp(dir, "rawfsync-*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 256)
	var runs []float64
	for r := 0; r < 256; r++ {
		t0 := time.Now()
		if _, err := f.Write(buf); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		runs = append(runs, msSince(t0))
	}
	return median(runs), nil
}

type guards struct {
	cpuMs   float64
	fsyncMs float64
}

func takeGuards(dir string) (guards, error) {
	fs, err := rawFsync(dir)
	return guards{cpuMs: cpuCalib(), fsyncMs: fs}, err
}

// drift is the relative change of b against a.
func drift(a, b float64) float64 {
	if a == 0 {
		return 0
	}
	return math.Abs(b-a) / a
}

// unsteady lists the reasons, if any, to distrust a run bracketed by the
// two guard readings. Fsync drift counts only where a flushing journal is
// in the path (flushed): the other runs' own file traffic (state-dir
// removal, the trace file) moves the reading without touching what they
// measure.
func unsteady(before, after guards, flushed bool) []string {
	var why []string
	if d := drift(before.cpuMs, after.cpuMs); d > maxCalibDrift {
		why = append(why, fmt.Sprintf("cpu calibration drifted %.0f%% (%.2f → %.2f ms)", 100*d, before.cpuMs, after.cpuMs))
	}
	if d := drift(before.fsyncMs, after.fsyncMs); flushed && d > maxCalibDrift {
		why = append(why, fmt.Sprintf("raw fsync drifted %.0f%% (%.3f → %.3f ms)", 100*d, before.fsyncMs, after.fsyncMs))
	}
	if ms := math.Min(before.fsyncMs, after.fsyncMs); ms < float64(minRawFsync)/float64(time.Millisecond) {
		why = append(why, fmt.Sprintf("raw fsync %.4f ms: tmpfs or no-op flush, durable numbers mean nothing", ms))
	}
	return why
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0)) / float64(time.Millisecond) }

// awaitGoroutines waits for the goroutine count to fall back to base —
// every Close in the stack must take its goroutines with it — and
// returns how many are still over after the grace period.
func awaitGoroutines(base int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		over := runtime.NumGoroutine() - base
		if over <= 0 {
			return 0
		}
		if time.Now().After(deadline) {
			return over
		}
		time.Sleep(time.Millisecond)
	}
}

// scratchDir makes a fresh directory under out for one run's state.
func scratchDir(out, prefix string) (string, error) {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(out, prefix+"-*")
}

// tracePath is where a workload's spans are written.
func tracePath(out, workload string) string {
	return filepath.Join(out, "trace-"+workload+".json")
}
