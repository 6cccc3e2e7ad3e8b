package main

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// shape is the fixed part of a run. The timed phase is cut into
// segments, each on a freshly set-up system: the service never evicts a
// settled job, so one long phase would measure an ever larger heap (and,
// on a lazily backed VM, the host's page faults) rather than the stack.
// Every segment is set-up → measure → restarts → teardown, and every
// end-to-end metric is the favourable quartile over the segments
// (stats.go says why).
type shape struct {
	segments int
	warmup   map[string]int // per workload: warm-up operations per client (mixes per layer on omp_constructs)
	restarts map[string]int // per workload: restarts at the end of each segment
	rung     time.Duration  // time one ladder rung may take
}

// fullShape is what every measured run uses, so that the metrics mean the
// same on every commit; only the smoke test runs a smaller one.
var fullShape = shape{
	// Many short segments rather than few long ones: what differs from one
	// set-up to the next (which domain a connection lands on, how the
	// team's threads fall on the CPUs) is sampled 24 times per run instead
	// of being one run's luck.
	segments: 24,
	// svc_payload operations take 8 ms each, svc_fanout's are 18 jobs.
	warmup: map[string]int{wOMP: 1000, wSmall: 512, wDurable: 256, wPayload: 16, wFanout: 24},
	// A svc_durable restart replays the whole segment's journal.
	restarts: map[string]int{wOMP: 40, wSmall: 8, wDurable: 2, wPayload: 8, wFanout: 8},
	rung:     1200 * time.Millisecond,
}

const (
	restartSample = 1000 // svc_durable jobs re-read byte-exact per run, spread over segments
	maxTraced     = 6 * time.Second
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	clients  int
	out      string
	shape
}

func (c config) timed() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// segment is the length of one segment's measured part.
func (c config) segment() time.Duration { return c.timed() / time.Duration(c.segments) }

// report is what one run of one workload produced.
type report struct {
	workload string
	digest   string
	clients  int
	tally
	metrics metrics
	notes   []string // steadiness verdicts and the like, printed above the metrics
	leaked  int      // goroutines that outlived a Close
	spans   *tracer  // traced service runs: written out once the run has ended
	stale   []string // scratch and state dirs, removed once the run has ended
}

// tally is the correctness oracle's ledger: every checked operation is
// attempted, every miss failed.
type tally struct {
	attempted, failed int
	errs              []string
}

func (t *tally) check(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.errs) < 5 {
			t.errs = append(t.errs, err.Error())
		}
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, e := range o.errs {
		if len(t.errs) < 5 {
			t.errs = append(t.errs, e)
		}
	}
}

// loopResult is one closed-loop phase.
type loopResult struct {
	tally
	ms      []float64 // latency of every verified operation, all clients
	elapsed time.Duration
}

// rate is the phase's verified operations per second.
func (l loopResult) rate() float64 { return float64(len(l.ms)) / l.elapsed.Seconds() }

// closedLoop runs op from n concurrent callers, each issuing its next
// operation only when the previous one has been verified. Caller c's i-th
// call is op(c, i). Each caller stops after count operations when count
// > 0, otherwise once d has passed.
func closedLoop(n, count int, d time.Duration, op func(c, i int) (ms float64, err error)) loopResult {
	per := make([]loopResult, n)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := &per[c]
			for i := 0; (count > 0 && i < count) || (count <= 0 && time.Since(t0) < d); i++ {
				ms, err := op(c, i)
				r.check(err)
				if err == nil {
					r.ms = append(r.ms, ms)
				}
			}
		}(c)
	}
	wg.Wait()
	all := loopResult{elapsed: time.Since(t0)}
	for _, r := range per {
		all.merge(r.tally)
		all.ms = append(all.ms, r.ms...)
	}
	return all
}

// segStats are an untraced run's per-segment values (restarts: every
// sample of every segment).
type segStats struct {
	setups, rates, p50s, p90s, restarts []float64
}

// measured records one segment's measured part: its operations' latencies
// and its rate.
func (s *segStats) measured(ms []float64, rate float64) {
	s.rates = append(s.rates, rate)
	s.p50s = append(s.p50s, median(ms))
	s.p90s = append(s.p90s, p90(ms))
}

// report turns the segments into the end-to-end metrics, each the
// favourable quartile, and prints what went into them.
func (s *segStats) report(rep *report) {
	rep.metrics["setup_s"] = lowQ(s.setups)
	rep.metrics["ops_per_s"] = highQ(s.rates)
	rep.metrics["op_p50_ms"] = lowQ(s.p50s)
	rep.metrics["op_p90_ms"] = lowQ(s.p90s)
	rep.metrics["restart_ms"] = lowQ(s.restarts)
	rep.notes = append(rep.notes, fmt.Sprintf("per segment: setup_s %.3f  ops_per_s %.0f  op_p50_ms %.4f  op_p90_ms %.4f", s.setups, s.rates, s.p50s, s.p90s))
	r := sorted(s.restarts)
	rep.notes = append(rep.notes, fmt.Sprintf("restart_ms over %d restarts: min %.4f  quartiles %.4f %.4f %.4f  max %.4f",
		len(r), quantile(r, 0), quantile(r, 0.25), quantile(r, 0.5), quantile(r, 0.75), quantile(r, 1)))
}

// leakCheck asserts that a Close took its goroutines with it.
func (r *report) leakCheck(base int, what string) {
	over := awaitGoroutines(base)
	var err error
	if over > 0 {
		err = fmt.Errorf("%s: %d goroutines still running 2 s after Close", what, over)
		r.leaked += over
	}
	r.check(err)
}

// tailMetrics reports the traced run's untraced reference latencies: the
// sample count, the median that ties the ledger to the gate's op_p50_ms,
// the highest percentile the count supports, and the fixed p99 / p99.9
// (0 when unsupported) the gate deliberately leaves out.
func tailMetrics(m metrics, ms []float64) {
	s := sorted(ms)
	m["client.samples"] = float64(len(s))
	m["client.op_p50_ms"] = quantile(s, 0.5)
	m["client.op_p99_ms"] = tailAt(s, 100)
	m["client.op_p999_ms"] = tailAt(s, 1000)
	m["client.op_max_ms"] = quantile(s, 1)
	if level, ok := supportedTail(len(s)); ok {
		m["client.op_tail_pct"] = 100 * level
		m["client.op_tail_ms"] = quantile(s, level)
	}
}

// heapLive is the live heap after a full collection.
func heapLive() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// peakRSSMB reads the process's high-water resident set; 0 where /proc
// does not offer it.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// runWorkload dispatches one workload run and brackets it with the
// steadiness guards.
func runWorkload(cfg config) (*report, error) {
	in, err := generate(cfg.workload, cfg.seed, cfg.clients)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	rep := &report{workload: cfg.workload, digest: in.digest(), clients: cfg.clients, metrics: metrics{}}
	// Runs follow one another closely; flush what the previous one left
	// dirty so that its writeback does not land in this one's timings.
	syscall.Sync()
	before, err := takeGuards(cfg.out)
	if err != nil {
		return nil, err
	}
	base := runtime.NumGoroutine()

	if cfg.workload == wOMP {
		rep.clients = 1 // one caller forking teams
	}
	switch {
	case cfg.workload == wOMP && cfg.trace:
		err = ompTraced(cfg, in, rep)
	case cfg.workload == wOMP:
		err = ompTimed(cfg, in, rep)
	case cfg.trace:
		err = svcTraced(cfg, in, rep, base)
	default:
		err = svcTimed(cfg, in, rep, base)
	}
	if err != nil {
		return nil, err
	}

	rep.leakCheck(base, "end of run")
	after, err := takeGuards(cfg.out)
	if err != nil {
		return nil, err
	}
	// Only now the run's own file traffic: the trace out, the state dirs
	// gone, and all of it flushed before the next run starts.
	if rep.spans != nil {
		if err := rep.spans.write(tracePath(cfg.out, cfg.workload)); err != nil {
			return nil, err
		}
	}
	for _, d := range rep.stale {
		if err := os.RemoveAll(d); err != nil {
			return nil, err
		}
	}
	syscall.Sync()
	rep.notes = append(rep.notes, fmt.Sprintf("guards: cpu spin %.3f → %.3f ms, raw fsync %.3f → %.3f ms",
		before.cpuMs, after.cpuMs, before.fsyncMs, after.fsyncMs))
	why := unsteady(before, after, cfg.workload == wDurable && cfg.trace)
	for _, w := range why {
		rep.notes = append(rep.notes, "unsteady: "+w)
	}
	if cfg.trace {
		rep.metrics["client.cpu_calib_drift_frac"] = drift(before.cpuMs, after.cpuMs)
		rep.metrics["client.unsteady"] = float64(len(why))
		rep.metrics["client.goroutine_leak"] = float64(rep.leaked)
		rep.metrics["client.peak_rss_mb"] = peakRSSMB()
		rep.metrics["durable.raw_fsync_ms"] = (before.fsyncMs + after.fsyncMs) / 2
		return rep, rep.metrics.complete(perLayer, true)
	}
	return rep, rep.metrics.complete(endToEnd, false)
}
