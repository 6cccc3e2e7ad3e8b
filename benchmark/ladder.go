package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"openmpmca"
	"openmpmca/internal/durable"
	"openmpmca/internal/jobservice"
	"openmpmca/internal/mcapi"
	"openmpmca/internal/mrapi"
	"openmpmca/internal/mtapi"
	"openmpmca/internal/offload"
	"openmpmca/internal/taskfabric"
)

// The ladder is Table I's method turned on our own stack: one caller
// replays the workload's inputs at each rung, every rung adds exactly one
// layer to the one below, and a layer's self time is its rung minus the
// previous rung. Each rung verifies every result.

// rungOps bounds one rung beside its time budget: inputs are replayed
// until either runs out.
const rungOps = 1500

// rung replays ins through op for at most budget and returns the median
// time per input in µs. op must return the job's result bytes.
func rung(ins []jobInput, budget time.Duration, op func(in *jobInput) ([]byte, error)) (float64, error) {
	var us []float64
	t0 := time.Now()
	for i := 0; i < len(ins) && i < rungOps && time.Since(t0) < budget; i++ {
		in := &ins[i]
		s := time.Now()
		got, err := op(in)
		el := time.Since(s)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", in.Job, err)
		}
		if !bytes.Equal(got, in.Want) {
			return 0, fmt.Errorf("%s: result differs from expected", in.Job)
		}
		us = append(us, float64(el.Nanoseconds())/1e3)
	}
	return median(us), nil
}

// viaCodec is rung 2: the job fn wrapped in the task wire codec, both
// directions, as a worker domain would see it.
func viaCodec(fn func(in *jobInput) ([]byte, error)) func(in *jobInput) ([]byte, error) {
	return func(in *jobInput) ([]byte, error) {
		pkt := offload.EncodeTaskFrame(offload.KindTask, offload.TaskFrame{Task: 1, Attempt: 1, Job: in.Job, Arg: in.Arg})
		tf, err := offload.DecodeTaskFrame(offload.KindTask, pkt)
		if err != nil {
			return nil, err
		}
		res, err := fn(&jobInput{Job: tf.Job, Arg: tf.Arg})
		if err != nil {
			return nil, err
		}
		rp := offload.EncodeTaskResult(offload.TaskResultFrame{Task: tf.Task, Attempt: tf.Attempt, Status: offload.StatusOK, Payload: res})
		rf, err := offload.DecodeTaskResult(rp)
		if err != nil {
			return nil, err
		}
		return rf.Payload, nil
	}
}

// pktLink is one connected MCAPI packet channel.
type pktLink struct {
	send *mcapi.PktSendHandle
	recv *mcapi.PktRecvHandle
}

func newPktLink(from, to *mcapi.Node, port mcapi.Port) (pktLink, error) {
	out, err := from.CreateEndpoint(port, nil)
	if err != nil {
		return pktLink{}, err
	}
	in, err := to.CreateEndpoint(port, nil)
	if err != nil {
		return pktLink{}, err
	}
	if err := mcapi.PktConnect(out, in); err != nil {
		return pktLink{}, err
	}
	s, err := mcapi.PktOpenSend(out)
	if err != nil {
		return pktLink{}, err
	}
	r, err := mcapi.PktOpenRecv(in)
	return pktLink{send: s, recv: r}, err
}

// mcapiWorker is rung 3's far side: a goroutine standing in for a worker
// domain, reached only through two MCAPI packet channels.
type mcapiWorker struct {
	host, worker *mcapi.Node
	down, up     pktLink
	done         chan error
}

func startMCAPIWorker(fn func(in *jobInput) ([]byte, error)) (*mcapiWorker, error) {
	sys := mcapi.NewSystem()
	w := &mcapiWorker{done: make(chan error, 1)}
	var err error
	if w.host, err = sys.Initialize(1, 1); err != nil {
		return nil, err
	}
	if w.worker, err = sys.Initialize(1, 2); err != nil {
		return nil, err
	}
	if w.down, err = newPktLink(w.host, w.worker, 1); err != nil {
		return nil, err
	}
	if w.up, err = newPktLink(w.worker, w.host, 2); err != nil {
		return nil, err
	}
	go func() {
		for {
			pkt, err := w.down.recv.Recv(mcapi.TimeoutInfinite)
			if err != nil {
				w.done <- nil // channel closed by stop
				return
			}
			tf, err := offload.DecodeTaskFrame(offload.KindTask, pkt)
			if err != nil {
				w.done <- err
				return
			}
			res, err := fn(&jobInput{Job: tf.Job, Arg: tf.Arg})
			if err != nil {
				w.done <- err
				return
			}
			rp := offload.EncodeTaskResult(offload.TaskResultFrame{Task: tf.Task, Attempt: tf.Attempt, Status: offload.StatusOK, Payload: res})
			if err := w.up.send.Send(rp, mcapi.TimeoutInfinite); err != nil {
				w.done <- err
				return
			}
		}
	}()
	return w, nil
}

func (w *mcapiWorker) roundTrip(in *jobInput) ([]byte, error) {
	pkt := offload.EncodeTaskFrame(offload.KindTask, offload.TaskFrame{Task: 1, Attempt: 1, Job: in.Job, Arg: in.Arg})
	if err := w.down.send.Send(pkt, mcapi.TimeoutInfinite); err != nil {
		return nil, err
	}
	rp, err := w.up.recv.Recv(mcapi.TimeoutInfinite)
	if err != nil {
		return nil, err
	}
	rf, err := offload.DecodeTaskResult(rp)
	return rf.Payload, err
}

// stop finalizes both nodes, which fails the worker's blocked receive,
// and waits for its goroutine.
func (w *mcapiWorker) stop() error {
	w.worker.Finalize()
	w.host.Finalize()
	return <-w.done
}

// viaHandler is rung 5: the job service called in process through
// ServeHTTP and a ResponseRecorder — everything of jobservice, nothing of
// net/http's connection handling or the loopback.
func viaHandler(svc *openmpmca.JobService, key string) func(in *jobInput) ([]byte, error) {
	do := func(method, path string, body []byte, want int) (jobservice.JobView, error) {
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		req.Header.Set("X-API-Key", key)
		rec := httptest.NewRecorder()
		svc.ServeHTTP(rec, req)
		var env envelope[jobservice.JobView]
		if err := json.NewDecoder(rec.Body).Decode(&env); err != nil {
			return env.Metadata, err
		}
		if rec.Code != want {
			return env.Metadata, fmt.Errorf("%s %s: HTTP %d: %s", method, path, rec.Code, env.Error)
		}
		return env.Metadata, nil
	}
	return func(in *jobInput) ([]byte, error) {
		v, err := do(http.MethodPost, "/v1/jobs", in.body, http.StatusAccepted)
		if err != nil {
			return nil, err
		}
		v, err = do(http.MethodGet, "/v1/jobs/"+v.ID+"?wait="+longPoll, nil, http.StatusOK)
		if err != nil {
			return nil, err
		}
		return v.Result, verify(in, &v)
	}
}

// ladderResult holds the median µs of each rung; a rung not run is 0.
type ladderResult struct {
	fn, codec, mcapi, fabric, inproc, tcp, durable float64
	mtapi                                          float64
}

// runLadder climbs the rungs over ins (tasks only: parallel_for members
// have no single-task path). mem is an in-memory stack; dur, when not
// nil, is the durable stack of svc_durable for the top rung; budget is the
// time each rung may take.
func runLadder(ins []jobInput, mem, dur *stack, budget time.Duration) (ladderResult, error) {
	var lr ladderResult
	direct := func(in *jobInput) ([]byte, error) {
		job, ok := mem.jobs.Lookup(in.Job)
		if !ok {
			return nil, fmt.Errorf("job %q not registered", in.Job)
		}
		return job.Execute(nil, in.Arg) // the builtins ignore the runtime
	}
	var err error
	if lr.fn, err = rung(ins, budget, direct); err != nil {
		return lr, fmt.Errorf("rung fn: %w", err)
	}
	if lr.codec, err = rung(ins, budget, viaCodec(direct)); err != nil {
		return lr, fmt.Errorf("rung codec: %w", err)
	}
	w, err := startMCAPIWorker(direct)
	if err != nil {
		return lr, fmt.Errorf("rung mcapi: %w", err)
	}
	lr.mcapi, err = rung(ins, budget, w.roundTrip)
	if serr := w.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return lr, fmt.Errorf("rung mcapi: %w", err)
	}

	node := mtapi.NewNode(0, 1, nil)
	if _, err := node.CreateAction(1, "ladder", func(args any) (any, error) { return direct(args.(*jobInput)) }); err != nil {
		return lr, err
	}
	lr.mtapi, err = rung(ins, budget, func(in *jobInput) ([]byte, error) {
		t, err := node.Start(1, in, nil)
		if err != nil {
			return nil, err
		}
		res, err := t.Wait(-1)
		if err != nil {
			return nil, err
		}
		return res.([]byte), nil
	})
	node.Shutdown()
	if err != nil {
		return lr, fmt.Errorf("rung mtapi: %w", err)
	}

	if lr.fabric, err = rung(ins, budget, func(in *jobInput) ([]byte, error) {
		h, err := mem.fab.SubmitJob(in.Job, in.Arg)
		if err != nil {
			return nil, err
		}
		return h.Wait(taskfabric.TimeoutInfinite)
	}); err != nil {
		return lr, fmt.Errorf("rung fabric: %w", err)
	}
	if lr.inproc, err = rung(ins, budget, viaHandler(mem.svc, mem.tenants[0].Key)); err != nil {
		return lr, fmt.Errorf("rung inproc: %w", err)
	}
	overTCP := func(st *stack) (float64, error) {
		c := newClient(st.base, st.tenants[0].Key)
		defer c.close()
		return rung(ins, budget, func(in *jobInput) ([]byte, error) {
			jt, err := c.runJob(in)
			return jt.view.Result, err
		})
	}
	if lr.tcp, err = overTCP(mem); err != nil {
		return lr, fmt.Errorf("rung tcp: %w", err)
	}
	if dur != nil {
		if lr.durable, err = overTCP(dur); err != nil {
			return lr, fmt.Errorf("rung durable: %w", err)
		}
	}
	return lr, nil
}

// rmemTimes measures the zero-copy plane's primitive at the payload
// sizes of ins: one padded DMA write plus one padded read of a window
// configured like the fabric's. Returns median µs per pair and per KiB.
func rmemTimes(ins []jobInput, budget time.Duration) (pairUs, perKiB float64, err error) {
	sys := mrapi.NewSystem(nil)
	a, err := sys.Initialize(0, 0, nil)
	if err != nil {
		return 0, 0, err
	}
	defer a.Finalize()
	b, err := sys.Initialize(0, 1, nil)
	if err != nil {
		return 0, 0, err
	}
	defer b.Finalize()
	rm, err := a.RmemCreate(1, 1<<20, &mrapi.RmemAttributes{Access: mrapi.RmemDMA})
	if err != nil {
		return 0, 0, err
	}
	for _, n := range []*mrapi.Node{a, b} {
		if err := rm.Attach(n); err != nil {
			return 0, 0, err
		}
	}
	var us, kib []float64
	t0 := time.Now()
	for i := 0; i < len(ins) && i < 200 && time.Since(t0) < budget; i++ {
		p := ins[i].Arg
		s := time.Now()
		if err := mrapi.RmemWritePadded(rm, a, 0, p); err != nil {
			return 0, 0, err
		}
		got, err := mrapi.RmemReadPadded(rm, b, 0, len(p))
		el := float64(time.Since(s).Nanoseconds()) / 1e3
		if err != nil {
			return 0, 0, err
		}
		if !bytes.Equal(got, p) {
			return 0, 0, fmt.Errorf("rmem read differs from write (%d bytes)", len(p))
		}
		us = append(us, el)
		kib = append(kib, el/(float64(len(p))/1024))
	}
	return median(us), median(kib), nil
}

// journalTimes measures the journal directly: the accept/dispatch/settle
// entries of ins appended to a scratch store, with and without fsync.
type journalTimes struct {
	appendP50Ms, appendP90Ms float64
	nosyncUs                 float64
	bytesPerJob              float64
	openMsPerKJob, compactMs float64
}

func entriesOf(i int, in *jobInput) [3]durable.Entry {
	id := fmt.Sprintf("j-%d", i+1)
	return [3]durable.Entry{
		{Op: durable.OpAccept, ID: id, At: 1, Tenant: "client0", Kind: jobservice.KindTask, Name: in.Job, Arg: in.Arg},
		{Op: durable.OpDispatch, ID: id},
		{Op: durable.OpSettle, ID: id, Status: durable.StatusSucceeded, Result: in.Want},
	}
}

func measureJournal(ins []jobInput, dir string) (journalTimes, error) {
	var jt journalTimes
	appendAll := func(sub string, n int, opts ...durable.Option) ([]float64, *durable.Store, error) {
		st, err := durable.Open(dir+"/"+sub, opts...)
		if err != nil {
			return nil, nil, err
		}
		var ms []float64
		for i := 0; i < n && i < len(ins); i++ {
			for _, e := range entriesOf(i, &ins[i]) {
				s := time.Now()
				if err := st.Append(e); err != nil {
					st.Close()
					return nil, nil, err
				}
				ms = append(ms, msSince(s))
			}
		}
		return ms, st, nil
	}
	const syncJobs, nosyncJobs = 200, 1000
	ms, st, err := appendAll("sync", syncJobs)
	if err != nil {
		return jt, err
	}
	jt.appendP50Ms, jt.appendP90Ms = median(ms), p90(ms)
	jt.bytesPerJob = float64(st.Stats().JournalBytes) / float64(len(ms)/3)
	if err := st.Close(); err != nil {
		return jt, err
	}

	ms, st, err = appendAll("nosync", nosyncJobs, durable.WithFsync(false))
	if err != nil {
		return jt, err
	}
	jt.nosyncUs = median(ms) * 1e3
	jobs := float64(len(ms) / 3)
	s := time.Now()
	if err := st.Compact(); err != nil {
		st.Close()
		return jt, err
	}
	jt.compactMs = msSince(s)
	if err := st.Close(); err != nil {
		return jt, err
	}
	// Reopen what was just written: recovery + the compaction Open does.
	var opens []float64
	for r := 0; r < 5; r++ {
		s := time.Now()
		st, err := durable.Open(dir + "/nosync")
		if err != nil {
			return jt, err
		}
		opens = append(opens, msSince(s))
		if got := len(st.Recovered().Jobs); got != int(jobs) {
			st.Close()
			return jt, fmt.Errorf("reopen recovered %d jobs, want %d", got, int(jobs))
		}
		if err := st.Close(); err != nil {
			return jt, err
		}
	}
	jt.openMsPerKJob = median(opens) / (jobs / 1000)
	return jt, nil
}
