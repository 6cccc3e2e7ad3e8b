package main

import (
	"fmt"
	"time"

	"openmpmca/internal/jobservice"
	"openmpmca/internal/taskfabric"
)

// svcBench carries one service-workload run through its phases.
type svcBench struct {
	cfg  config
	in   *inputs
	rep  *report
	base int // goroutine count with no stack up

	dir string // state dir of the live stack; "" in memory
	st  *stack
	cl  []*client
	cur []int // per client: inputs consumed so far

	// sample remembers timed-phase jobs of svc_durable for the byte-exact
	// re-read after every reopen.
	sample [][]sampleRef
	tr     *tracer // non-nil while the traced phase runs
}

type sampleRef struct {
	id string
	in *jobInput
}

func newSvcBench(cfg config, in *inputs, rep *report, base int) *svcBench {
	return &svcBench{cfg: cfg, in: in, rep: rep, base: base,
		cur: make([]int, cfg.clients), sample: make([][]sampleRef, cfg.clients)}
}

func (b *svcBench) durable() bool { return b.cfg.workload == wDurable }
func (b *svcBench) fanout() bool  { return b.cfg.workload == wFanout }

// flush reports whether svc_durable's journal fsyncs. The traced run
// leaves the service's default on, so the ledger shows the journal as
// deployed. The untraced run turns it off: on the virtual disks this
// benchmark runs on, the cost of one fsync wanders by an order of
// magnitude within minutes (README.md has the numbers), and with it on no
// end-to-end metric of this workload repeats within any bound. What the
// gate then measures is everything of the journal but the device: encode,
// write, compaction, and replay on restart.
func (b *svcBench) flush() bool { return b.cfg.trace }

// up boots a stack over dir and connects one client per tenant.
func (b *svcBench) up(dir string) error {
	st, err := newStack(b.cfg.clients, dir, b.flush())
	if err != nil {
		return err
	}
	b.st, b.dir = st, dir
	b.cl = b.cl[:0]
	for _, t := range st.tenants {
		b.cl = append(b.cl, newClient(st.base, t.Key))
	}
	return nil
}

// down closes clients and stack and checks nothing is left running.
func (b *svcBench) down() error {
	for _, c := range b.cl {
		c.close()
	}
	err := b.st.Close()
	b.st = nil
	b.rep.leakCheck(b.base, "stack close")
	return err
}

// op is the workload's operation as closedLoop wants it: the next input
// of client c, run and verified, latency in ms.
func (b *svcBench) op(c, _ int) (float64, error) {
	i := b.cur[c]
	b.cur[c]++
	if b.fanout() {
		pool := b.in.bursts[c]
		burst := &pool[i%len(pool)]
		bt, err := b.cl[c].runBurst(burst, b.tr != nil)
		if err == nil && b.tr != nil {
			b.tr.addBurst(&bt)
		}
		return float64(bt.drained-bt.start) / 1e6, err
	}
	pool := b.in.jobs[c]
	in := &pool[i%len(pool)]
	jt, err := b.cl[c].runJob(in)
	if err != nil {
		return 0, err
	}
	if b.tr != nil {
		evs, err := b.cl[c].jobEvents(jt.view.ID)
		if err != nil {
			return 0, err
		}
		b.tr.addJob(0, jt.view.ID, jt.post, jt.done, &jt.view, evs)
		b.tr.addRTT(jt.accepted - jt.post)
	} else if b.durable() && len(b.sample[c]) < restartSample/b.cfg.segments/b.cfg.clients {
		b.sample[c] = append(b.sample[c], sampleRef{id: jt.view.ID, in: in})
	}
	return float64(jt.done-jt.post) / 1e6, nil
}

// setup is one set-up: fresh state dir (durable), boot, fixed warm-up.
// It returns the seconds it took.
func (b *svcBench) setup() (float64, error) {
	t0 := time.Now()
	dir := ""
	if b.durable() {
		var err error
		if dir, err = scratchDir(b.cfg.out, "state"); err != nil {
			return 0, err
		}
	}
	if err := b.up(dir); err != nil {
		return 0, err
	}
	w := closedLoop(b.cfg.clients, b.cfg.warmup[b.cfg.workload], 0, b.op)
	b.rep.merge(w.tally)
	for c := range b.sample {
		b.sample[c] = b.sample[c][:0] // warm-up jobs die with their state dir
	}
	return time.Since(t0).Seconds(), nil
}

// teardown ends a set-up for good. Its state dir is only queued for
// removal: deleting megabytes of journal between two segments would put
// the filesystem's work into the next one's timings.
func (b *svcBench) teardown() error {
	if b.dir != "" {
		b.rep.stale = append(b.rep.stale, b.dir)
	}
	return b.down()
}

// restart is one graceful restart as a user feels it: Close of the
// running service, then a new stack over the same state until it has
// answered its first verified operation. The goroutine check between the
// two is not timed. On svc_durable the time is divided by the thousands
// of jobs the reopen replayed, and the sample is re-read byte-exact.
func (b *svcBench) restart() (float64, error) {
	dir := b.dir
	t0 := time.Now()
	if err := b.down(); err != nil {
		return 0, err
	}
	closeMs := msSince(t0)
	t0 = time.Now()
	if err := b.up(dir); err != nil {
		return 0, err
	}
	_, err := b.op(0, 0)
	ms := closeMs + msSince(t0)
	b.rep.check(err)
	if !b.durable() {
		return ms, nil
	}
	snap, err := b.cl[0].stats()
	if err != nil {
		return 0, err
	}
	if snap.Durable == nil || snap.Durable.ReplayedJobs == 0 {
		return 0, fmt.Errorf("reopened service replayed no jobs from %s", dir)
	}
	b.rereadSample()
	return ms / (float64(snap.Durable.ReplayedJobs) / 1000), nil
}

// rereadSample fetches every sampled job from the reopened service and
// holds it to the same oracle as the first time.
func (b *svcBench) rereadSample() {
	for c, refs := range b.sample {
		for _, s := range refs {
			v, err := b.cl[c].getJob(s.id)
			if err == nil {
				err = verify(s.in, &v)
			}
			b.rep.check(err)
		}
	}
}

// svcTimed is the untraced run of a service workload: the end-to-end
// metrics, each the favourable quartile over the run's segments.
func svcTimed(cfg config, in *inputs, rep *report, base int) error {
	b := newSvcBench(cfg, in, rep, base)
	seg := cfg.segment()
	var st segStats
	for k := 0; k < cfg.segments; k++ {
		s, err := b.setup()
		if err != nil {
			return err
		}
		st.setups = append(st.setups, s)
		timed := closedLoop(cfg.clients, 0, seg, b.op)
		rep.merge(timed.tally)
		if len(timed.ms) == 0 {
			return fmt.Errorf("%s: no operation succeeded in segment %d: %v", cfg.workload, k, timed.errs)
		}
		st.measured(timed.ms, timed.rate())
		for r := 0; r < cfg.restarts[cfg.workload]; r++ {
			ms, err := b.restart()
			if err != nil {
				return err
			}
			st.restarts = append(st.restarts, ms)
		}
		if err := b.teardown(); err != nil {
			return err
		}
	}
	st.report(rep)
	if b.fanout() {
		rep.notes = append(rep.notes, fmt.Sprintf("jobs_per_s %.1f (%d members per burst)", rep.metrics["ops_per_s"]*burstSize, burstSize))
	}
	return nil
}

// svcTraced is the traced run: the per-layer ledger, built from outside.
func svcTraced(cfg config, in *inputs, rep *report, base int) error {
	b := newSvcBench(cfg, in, rep, base)
	if _, err := b.setup(); err != nil {
		return err
	}
	m := rep.metrics
	phase := min(cfg.timed()/4, maxTraced)

	// Untraced reference phase: the p50 tracing is compared against, the
	// tails, and what the service retains per settled job.
	heap0 := heapLive()
	ref := closedLoop(cfg.clients, 0, phase, b.op)
	rep.merge(ref.tally)
	heap1 := heapLive()
	if len(ref.ms) == 0 {
		return fmt.Errorf("%s: no operation succeeded untraced: %v", cfg.workload, ref.errs)
	}
	jobsPerOp := 1.0
	if b.fanout() {
		jobsPerOp = burstSize
	}
	tailMetrics(m, ref.ms)
	m["jobservice.retained_bytes_per_job"] = max(heap1-heap0, 0) / (float64(len(ref.ms)) * jobsPerOp)

	// Traced phase, bracketed by the program's own counters.
	snap0, err := b.cl[0].stats()
	if err != nil {
		return err
	}
	b.tr = &tracer{}
	traced := closedLoop(cfg.clients, 0, phase, b.op)
	tr := b.tr
	b.tr = nil
	rep.merge(traced.tally)
	snap1, err := b.cl[0].stats()
	if err != nil {
		return err
	}
	if len(traced.ms) == 0 {
		return fmt.Errorf("%s: no operation succeeded traced: %v", cfg.workload, traced.errs)
	}
	m["client.trace_overhead_frac"] = median(traced.ms)/median(ref.ms) - 1
	tr.ledger(m)
	counters(m, &snap0, &snap1, float64(len(traced.ms))*jobsPerOp)
	if b.fanout() {
		m["jobservice.stream_lines_per_job"] = float64(tr.lines) / (float64(len(traced.ms)) * jobsPerOp)
	}

	// The ladder, single caller, over client 0's inputs.
	var ins []jobInput
	if b.fanout() {
		for _, burst := range in.bursts[0] {
			ins = append(ins, burst.Members[:burstSums]...)
		}
	} else {
		ins = in.jobs[0]
	}
	mem, dur := b.st, (*stack)(nil)
	if b.durable() {
		if mem, err = newStack(1, "", false); err != nil {
			return err
		}
		dur = b.st
	}
	lr, err := runLadder(ins, mem, dur, cfg.rung)
	if err != nil {
		return err
	}
	m["client.ladder_fn_us"] = lr.fn
	m["offload.codec_us"] = lr.codec - lr.fn
	m["mcapi.pkt_roundtrip_us"] = lr.mcapi
	m["mcapi.self_us"] = lr.mcapi - lr.codec
	m["mtapi.start_wait_us"] = lr.mtapi
	m["taskfabric.roundtrip_us"] = lr.fabric
	m["taskfabric.self_us"] = lr.fabric - lr.mcapi
	m["jobservice.inproc_roundtrip_us"] = lr.inproc
	m["jobservice.self_us"] = lr.inproc - lr.fabric
	m["jobservice.http_self_us"] = lr.tcp - lr.inproc
	if dur != nil {
		m["durable.self_ms"] = (lr.durable - lr.tcp) / 1e3
	}

	switch cfg.workload {
	case wFanout:
		if err := fanoutDirect(in.bursts[0], mem, 2*cfg.rung, m); err != nil {
			return err
		}
	case wPayload:
		if m["mrapi.rmem_write_read_us"], m["mrapi.rmem_us_per_kib"], err = rmemTimes(ins, cfg.rung); err != nil {
			return err
		}
	case wDurable:
		scratch, err := scratchDir(cfg.out, "journal")
		if err != nil {
			return err
		}
		rep.stale = append(rep.stale, scratch)
		jt, err := measureJournal(ins, scratch)
		if err != nil {
			return err
		}
		m["durable.append_p50_ms"] = jt.appendP50Ms
		m["durable.append_p90_ms"] = jt.appendP90Ms
		m["durable.append_nosync_us"] = jt.nosyncUs
		m["durable.journal_bytes_per_job"] = jt.bytesPerJob
		m["durable.open_ms_per_kjob"] = jt.openMsPerKJob
		m["durable.compact_ms"] = jt.compactMs
		if err := mem.Close(); err != nil {
			return err
		}
	}
	rep.spans = tr
	return b.teardown()
}

// counters turns the difference of two /v1/stats snapshots into per-job
// counts.
func counters(m metrics, a, b *jobservice.Snapshot, jobs float64) {
	fa, fb := a.Fabric, b.Fabric
	tasks := float64(fb.LocalTasks+fb.RemoteTasks) - float64(fa.LocalTasks+fa.RemoteTasks)
	m["taskfabric.steals_per_kjob"] = 1000 * float64(fb.Steals-fa.Steals) / jobs
	m["taskfabric.peer_steals_per_kjob"] = 1000 * float64(fb.PeerSteals-fa.PeerSteals) / jobs
	m["taskfabric.brokered_fallbacks"] = float64(fb.BrokeredFallbacks - fa.BrokeredFallbacks)
	m["taskfabric.resends"] = float64(fb.Resends - fa.Resends)
	if tasks > 0 {
		m["taskfabric.local_task_frac"] = float64(fb.LocalTasks-fa.LocalTasks) / tasks
	}
	m["taskfabric.rmem_bytes_per_job"] = float64(fb.RmemBytesMoved-fa.RmemBytesMoved) / jobs
	m["jobservice.refused"] = float64(b.Service.Rejected+b.Service.RateLimited) - float64(a.Service.Rejected+a.Service.RateLimited)
	if oa, ob := a.Offload, b.Offload; oa != nil && ob != nil {
		chunks := float64(ob.LocalChunks+ob.RemoteChunks) - float64(oa.LocalChunks+oa.RemoteChunks)
		if regions := float64(ob.Regions - oa.Regions); regions > 0 {
			m["offload.chunks_per_region"] = chunks / regions
			m["offload.local_chunk_frac"] = float64(ob.LocalChunks-oa.LocalChunks) / chunks
		}
		m["offload.resends"] = float64(ob.Resends - oa.Resends)
	}
	if da, db := a.Durable, b.Durable; da != nil && db != nil {
		m["durable.fsyncs_per_job"] = float64(db.Fsyncs-da.Fsyncs) / jobs
		m["durable.records_per_job"] = float64(db.JournalRecords-da.JournalRecords) / jobs
		m["durable.snapshots"] = float64(db.Snapshots - da.Snapshots)
	}
}

// fanoutDirect measures svc_fanout's two engines without the service: a
// burst's 16 tasks as one fabric group, and its regions through the
// offloader.
func fanoutDirect(bursts []burstInput, st *stack, budget time.Duration, m metrics) error {
	var spans, regions []float64
	t0 := time.Now()
	for i := 0; i < len(bursts) && time.Since(t0) < budget; i++ {
		members := bursts[i].Members
		g := st.fab.NewGroup()
		handles := make([]*taskfabric.TaskHandle, burstSums)
		s := time.Now()
		for j := range handles {
			h, err := g.SubmitJob(members[j].Job, members[j].Arg)
			if err != nil {
				return err
			}
			handles[j] = h
		}
		if err := g.WaitAll(taskfabric.TimeoutInfinite); err != nil {
			return err
		}
		spans = append(spans, msSince(s))
		for j, h := range handles {
			res, err := h.Wait(0)
			if err == nil {
				err = verify(&members[j], &jobservice.JobView{Status: jobservice.StatusSucceeded, Result: res})
			}
			if err != nil {
				return fmt.Errorf("direct group: %w", err)
			}
		}
		for _, pf := range members[burstSums:] {
			s := time.Now()
			res, err := st.off.ParallelFor(pf.Job, pf.N, nil)
			regions = append(regions, msSince(s))
			if err == nil {
				err = verify(&pf, &jobservice.JobView{Status: jobservice.StatusSucceeded, Result: res})
			}
			if err != nil {
				return fmt.Errorf("direct parallel_for: %w", err)
			}
		}
	}
	m["taskfabric.group_makespan_ms"] = median(spans)
	m["offload.parallel_for_ms"] = median(regions)
	return nil
}
