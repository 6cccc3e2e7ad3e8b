package chaos

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"openmpmca/internal/jobservice"
	"openmpmca/internal/mcapi"
	"openmpmca/internal/oerrors"
	"openmpmca/internal/offload"
	"openmpmca/internal/spans"
	"openmpmca/internal/taskfabric"
)

// drainBudget bounds how long a campaign waits for submitted work to
// settle after the schedule has run; work still unsettled past it is
// LOST and fails the campaign.
const drainBudget = 30 * time.Second

// Run executes one campaign: build the workload, install the MCAPI
// fault injector, drive the schedule, drain, verify. It installs
// process-global fault state, so campaigns must run one at a time.
func Run(c Campaign) Result {
	res := Result{Campaign: c.Name, Seed: c.Seed, Workload: c.Workload}
	if err := c.Validate(); err != nil {
		res.checkClassified("validate", err)
		res.fail("invalid campaign: %v", err)
		return res
	}
	before := oerrors.Counts()
	ff := newFrameFaults(c.Seed)
	mcapi.SetFaultInjector(ff.injector)
	defer mcapi.SetFaultInjector(nil)
	start := time.Now()
	switch c.Workload {
	case WorkloadFabric:
		runFabric(c, ff, &res)
	case WorkloadOffload:
		runOffload(c, ff, &res)
	case WorkloadService:
		runService(c, ff, &res)
	default:
		res.fail("unknown workload %q", c.Workload)
	}
	res.Elapsed = time.Since(start)
	res.FaultsInjected = ff.injected.Load()
	res.Errors = oerrors.Counts().Delta(before)
	return res
}

// unit is one verifiable piece of submitted work.
type unit struct {
	where  string
	expect []byte // exact payload a successful settle must carry
	handle *taskfabric.TaskHandle
	// sacrificial marks cancel-group members: settling with a
	// classified error is their expected outcome.
	sacrificial bool
}

// settleUnit verifies one fabric unit's terminal state.
func settleUnit(u unit, res *Result) {
	payload, err := u.handle.Wait(0)
	if err != nil && !errorsSettled(err) {
		// Not settled at all.
		res.Lost++
		res.fail("%s: never settled", u.where)
		return
	}
	res.Settled++
	switch {
	case err == nil || errors.Is(err, taskfabric.ErrDomainLost):
		if errors.Is(err, taskfabric.ErrDomainLost) {
			res.checkClassified(u.where, err)
		}
		if bytes.Equal(payload, u.expect) {
			res.Exact++
		} else {
			res.Inexact++
			res.fail("%s: payload %x, want %x", u.where, payload, u.expect)
		}
	case u.sacrificial:
		// Canceled (or torn down) on purpose; any classified error is
		// a legitimate settle.
		res.checkClassified(u.where, err)
		res.Exact++
	default:
		res.checkClassified(u.where, err)
		res.fail("%s: failed: %v", u.where, err)
	}
}

// errorsSettled distinguishes "settled with an error" from "still
// pending": a zero-timeout Wait on an unsettled task returns
// ErrTimeout.
func errorsSettled(err error) bool {
	return !errors.Is(err, taskfabric.ErrTimeout)
}

// ---------------------------------------------------------------------------
// Fabric workload.

func runFabric(c Campaign, ff *frameFaults, res *Result) {
	reg := taskfabric.NewRegistry()
	if err := jobservice.RegisterBuiltinJobs(reg); err != nil {
		res.fail("registry: %v", err)
		return
	}
	deadline := 600 * time.Millisecond
	opts := []taskfabric.Option{
		taskfabric.WithDomains(c.Domains),
		taskfabric.WithHeartbeat(5 * time.Millisecond), // lost after 40ms
		taskfabric.WithInflight(16),
	}
	if c.Blockers > 0 {
		// The steal setup: serial domain pools let blockers back up a
		// queue, and a generous deadline keeps re-dispatch from masking
		// the loss path (the kill-mid-graph contract).
		opts = append(opts, taskfabric.WithDomainWorkers(1))
		deadline = 5 * time.Second
	}
	sp := spans.NewExporter(0)
	opts = append(opts, taskfabric.WithTaskDeadline(deadline), taskfabric.WithEventSink(sp))
	f, err := taskfabric.NewFabric(reg, opts...)
	if err != nil {
		res.fail("fabric: %v", err)
		return
	}
	defer f.Close()

	var mu sync.Mutex // guards units: saturate bursts race the submitter
	var units []unit
	g := f.NewGroup()
	submit := func(grp *taskfabric.Group, job string, arg, expect []byte, sacrificial bool) {
		h, serr := grp.SubmitJob(job, arg)
		if serr != nil {
			res.checkClassified("submit "+job, serr)
			res.fail("submit %s: %v", job, serr)
			return
		}
		mu.Lock()
		res.Submitted++
		units = append(units, unit{
			where:       fmt.Sprintf("%s task %d", job, h.ID()),
			expect:      expect,
			handle:      h,
			sacrificial: sacrificial,
		})
		mu.Unlock()
	}

	// Blockers first: long spins that pin serial domains and let queues
	// back up behind them.
	for i := 0; i < c.Blockers; i++ {
		arg := jobservice.U64(uint64(400 * time.Millisecond))
		submit(g, jobservice.JobSpin, arg, arg, false)
	}
	// The main graph: sum tasks with closed-form expectations, a fib
	// and an echo mixed in. With TaskSpin set, half the tasks are busy
	// spins instead, so a scheduled kill catches work in flight.
	for i := 0; i < c.Tasks; i++ {
		if c.TaskSpin > 0 && i%2 == 0 {
			arg := jobservice.U64(uint64(c.TaskSpin) + uint64(i%7)*uint64(time.Millisecond))
			submit(g, jobservice.JobSpin, arg, arg, false)
			continue
		}
		switch i % 4 {
		case 0, 1:
			lo, hi := int64(i)*3, int64(i)*3+int64(40+i%23)
			submit(g, jobservice.JobSum, jobservice.I64Pair(lo, hi), jobservice.SumExpected(lo, hi), false)
		case 2:
			n := uint64(10 + i%60)
			submit(g, jobservice.JobFib, jobservice.U64(n), jobservice.FibExpected(n), false)
		default:
			arg := jobservice.U64(uint64(i) * 7919)
			submit(g, jobservice.JobEcho, arg, arg, false)
		}
	}

	// Sacrificial group for ActCancelGroup.
	var sacG *taskfabric.Group
	for _, a := range c.Actions {
		if a.Kind == ActCancelGroup {
			sacG = f.NewGroup()
			for i := 0; i < 6; i++ {
				arg := jobservice.U64(uint64(300 * time.Millisecond))
				submit(sacG, jobservice.JobSpin, arg, arg, true)
			}
			break
		}
	}

	stop := make(chan struct{})
	defer close(stop)
	done := make(chan struct{})
	go func() {
		defer close(done)
		driveFaults(c, ff, ops{
			kill:    f.KillDomain,
			readmit: f.ReadmitDomain,
			steals:  func() uint64 { return f.Stats().Steals },
			saturate: func(burst int) {
				for i := 0; i < burst; i++ {
					arg := jobservice.U64(uint64(i)*31 + 1)
					submit(g, jobservice.JobEcho, arg, arg, false)
				}
			},
			cancel: func() {
				if sacG != nil {
					sacG.Cancel()
				}
			},
		}, stop, res)
	}()
	<-done

	if werr := g.WaitAll(drainBudget); werr != nil && !errors.Is(werr, taskfabric.ErrDomainLost) {
		res.checkClassified("WaitAll", werr)
		res.fail("WaitAll: %v", werr)
	} else if werr != nil {
		res.checkClassified("WaitAll", werr)
	}
	if sacG != nil {
		// Canceled members settle immediately; uncancelled spins need
		// their sleep to elapse.
		if werr := sacG.WaitAll(drainBudget); werr != nil {
			res.checkClassified("sacrificial WaitAll", werr)
			if !errors.Is(werr, taskfabric.ErrCanceled) && !errors.Is(werr, taskfabric.ErrDomainLost) {
				res.fail("sacrificial WaitAll: %v", werr)
			}
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for _, u := range units {
		settleUnit(u, res)
	}
	st := f.Stats()
	res.Steals = st.Steals
	res.PeerSteals = st.PeerSteals
	res.Recovered = sp.Stats().Recovered
	if st.DomainsLost < uint64(res.DomainKills) {
		res.fail("DomainsLost = %d < kills applied %d", st.DomainsLost, res.DomainKills)
	}
}

// ---------------------------------------------------------------------------
// Offload workload.

func runOffload(c Campaign, ff *frameFaults, res *Result) {
	reg := offload.NewRegistry()
	if err := jobservice.RegisterBuiltinKernels(reg); err != nil {
		res.fail("registry: %v", err)
		return
	}
	sp := spans.NewExporter(0)
	o, err := taskfabric.NewOffloader(reg,
		taskfabric.WithDomains(c.Domains),
		taskfabric.WithHeartbeat(5*time.Millisecond),
		taskfabric.WithTaskDeadline(200*time.Millisecond),
		taskfabric.WithChunkIters(2048),
		taskfabric.WithEventSink(sp),
	)
	if err != nil {
		res.fail("offload: %v", err)
		return
	}
	defer o.Close()

	stop := make(chan struct{})
	defer close(stop)
	done := make(chan struct{})
	go func() {
		defer close(done)
		driveFaults(c, ff, ops{kill: o.KillDomain, readmit: o.ReadmitDomain}, stop, res)
	}()

	// Regions run back to back while the schedule fires; each result is
	// compared against the closed form. A region that survives a domain
	// loss reports ErrDomainLost alongside the exact result.
	for i := 0; i < c.Tasks; i++ {
		n := 20000 + i*3777
		res.Submitted++
		got, perr := o.ParallelFor(jobservice.KernelVecSum, n, nil)
		res.Settled++
		if perr != nil {
			res.checkClassified("region", perr)
			if !errors.Is(perr, offload.ErrDomainLost) {
				res.fail("region %d: %v", i, perr)
				continue
			}
		}
		if bytes.Equal(got, jobservice.VecSumExpected(n)) {
			res.Exact++
		} else {
			res.Inexact++
			res.fail("region %d (n=%d): payload %x, want %x", i, n, got, jobservice.VecSumExpected(n))
		}
	}
	<-done
	res.Recovered = sp.Stats().Recovered
}

// ---------------------------------------------------------------------------
// Service workload (full HTTP stack, over a loopback socket).

// envelope mirrors the service's JSON wrapper.
type envelope struct {
	Type       string          `json:"type"`
	StatusCode int             `json:"status_code"`
	Metadata   json.RawMessage `json:"metadata"`
	Error      string          `json:"error"`
	ErrorCode  int             `json:"error_code"`
	// RetryAfter is the response's Retry-After header, which every 429
	// must carry.
	RetryAfter string `json:"-"`
}

// do sends one JSON API request to the server at base (http://host:port)
// over a real socket. A transport error also comes back as status 0
// with its text in Error, so a caller that checks only the status still
// reports it.
func do(base, method, path, key string, body any) (int, envelope, error) {
	failed := func(err error) (int, envelope, error) { return 0, envelope{Error: err.Error()}, err }
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return failed(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, base+path, rd)
	if err != nil {
		return failed(err)
	}
	if key != "" {
		req.Header.Set("X-API-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return failed(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return failed(err)
	}
	env := envelope{RetryAfter: resp.Header.Get("Retry-After")}
	_ = json.Unmarshal(data, &env)
	return resp.StatusCode, env, nil
}

// serviceJob tracks one HTTP-submitted job to settlement.
type serviceJob struct {
	id     string
	name   string
	key    string // submitting tenant's API key: job views are tenant-scoped
	expect []byte
	// cancelable jobs live in the sacrificial group: status "canceled"
	// is a legitimate terminal state for them.
	cancelable bool
}

const (
	chaosKey = "chaos-key" // admin tenant: the campaign driver
	meekKey  = "meek-key"  // quota-4 tenant: the saturation target
)

func runService(c Campaign, ff *frameFaults, res *Result) {
	jobs := taskfabric.NewRegistry()
	if err := jobservice.RegisterBuiltinJobs(jobs); err != nil {
		res.fail("jobs: %v", err)
		return
	}
	kernels := offload.NewRegistry()
	if err := jobservice.RegisterBuiltinKernels(kernels); err != nil {
		res.fail("kernels: %v", err)
		return
	}
	if err := jobs.RegisterKernels(kernels); err != nil {
		res.fail("kernels: %v", err)
		return
	}
	sp := spans.NewExporter(0)
	fab, err := taskfabric.NewFabric(jobs,
		taskfabric.WithDomains(c.Domains),
		taskfabric.WithHeartbeat(5*time.Millisecond),
		taskfabric.WithTaskDeadline(600*time.Millisecond),
		taskfabric.WithEventSink(sp),
	)
	if err != nil {
		res.fail("fabric: %v", err)
		return
	}
	defer fab.Close()
	srv, err := jobservice.New(fab, jobs,
		jobservice.WithSpans(sp),
		jobservice.WithTenants(
			jobservice.Tenant{Name: "chaos", Key: chaosKey, Quota: 256,
				Priority: jobservice.PriorityHigh, Admin: true},
			jobservice.Tenant{Name: "meek", Key: meekKey, Quota: 4,
				Priority: jobservice.PriorityLow},
		),
	)
	if err != nil {
		res.fail("service: %v", err)
		return
	}
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	base := ts.URL

	var mu sync.Mutex
	var tracked []serviceJob
	submit := func(key string, body map[string]any, name string, expect []byte, cancelable bool) bool {
		code, env, _ := do(base, http.MethodPost, "/v1/jobs", key, body)
		if code == http.StatusTooManyRequests {
			// Quota refusal: the saturation outcome, counted server-side.
			if env.RetryAfter == "" {
				res.fail("submit %s: 429 without Retry-After", name)
			}
			return false
		}
		if code != http.StatusAccepted {
			res.fail("submit %s: HTTP %d %s", name, code, env.Error)
			return false
		}
		var view struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(env.Metadata, &view); err != nil || view.ID == "" {
			res.fail("submit %s: bad view: %v", name, err)
			return false
		}
		mu.Lock()
		res.Submitted++
		tracked = append(tracked, serviceJob{id: view.ID, name: name, key: key, expect: expect, cancelable: cancelable})
		mu.Unlock()
		return true
	}

	// Sacrificial group, created before the schedule runs so the
	// cancel action has a target.
	var sacGroup string
	for _, a := range c.Actions {
		if a.Kind != ActCancelGroup {
			continue
		}
		code, env, _ := do(base, http.MethodPost, "/v1/groups", chaosKey, nil)
		if code != http.StatusCreated && code != http.StatusOK && code != http.StatusAccepted {
			res.fail("group create: HTTP %d %s", code, env.Error)
			break
		}
		var gv struct {
			ID string `json:"id"`
		}
		_ = json.Unmarshal(env.Metadata, &gv)
		sacGroup = gv.ID
		for i := 0; i < 4; i++ {
			arg := jobservice.U64(uint64(300 * time.Millisecond))
			submit(chaosKey, map[string]any{"job": jobservice.JobSpin, "arg": arg, "group": sacGroup},
				"spin(group)", arg, true)
		}
		break
	}

	// The main load: task jobs with closed-form results plus
	// parallel-for regions on the same fabric.
	for i := 0; i < c.Tasks; i++ {
		switch i % 4 {
		case 0, 1:
			lo, hi := int64(i)*5, int64(i)*5+int64(60+i%31)
			submit(chaosKey, map[string]any{"job": jobservice.JobSum, "arg": jobservice.I64Pair(lo, hi)},
				"sum", jobservice.SumExpected(lo, hi), false)
		case 2:
			n := uint64(12 + i%50)
			submit(chaosKey, map[string]any{"job": jobservice.JobFib, "arg": jobservice.U64(n)},
				"fib", jobservice.FibExpected(n), false)
		default:
			n := 10000 + i*311
			submit(chaosKey, map[string]any{"job": jobservice.KernelVecSum, "kind": "parallel_for", "n": n},
				"vecsum", jobservice.VecSumExpected(n), false)
		}
	}

	stop := make(chan struct{})
	defer close(stop)
	done := make(chan struct{})
	go func() {
		defer close(done)
		driveFaults(c, ff, ops{
			kill: func(d int) error {
				code, env, _ := do(base, http.MethodPost, fmt.Sprintf("/v1/domains/%d/drain", d), chaosKey, nil)
				if code != http.StatusOK {
					return oerrors.Errorf(oerrors.Domain, oerrors.CodeReadmit,
						"chaos: drain %d: HTTP %d: %s", d, code, env.Error)
				}
				return nil
			},
			readmit: func(d int) error {
				code, env, _ := do(base, http.MethodPost, fmt.Sprintf("/v1/domains/%d/readmit", d), chaosKey, nil)
				if code != http.StatusOK {
					return oerrors.Errorf(oerrors.Domain, oerrors.CodeReadmit,
						"chaos: readmit %d: HTTP %d: %s", d, code, env.Error)
				}
				return nil
			},
			steals: func() uint64 { return fab.Stats().Steals },
			saturate: func(burst int) {
				// The meek tenant's quota is 4: a burst of slow spins
				// guarantees 429s, exercising Admission/quota.
				for i := 0; i < burst; i++ {
					arg := jobservice.U64(uint64(50 * time.Millisecond))
					submit(meekKey, map[string]any{"job": jobservice.JobSpin, "arg": arg}, "spin(meek)", arg, false)
				}
			},
			cancel: func() {
				if sacGroup != "" {
					_, _, _ = do(base, http.MethodPost, "/v1/groups/"+sacGroup+"/cancel", chaosKey, nil)
				}
			},
		}, stop, res)
	}()
	<-done

	// Drain: poll every tracked job to a terminal status.
	deadline := time.Now().Add(drainBudget)
	mu.Lock()
	pending := append([]serviceJob(nil), tracked...)
	mu.Unlock()
	for len(pending) > 0 && time.Now().Before(deadline) {
		var still []serviceJob
		for _, j := range pending {
			code, env, _ := do(base, http.MethodGet, "/v1/jobs/"+j.id, j.key, nil)
			if code != http.StatusOK {
				res.fail("poll %s: HTTP %d %s", j.id, code, env.Error)
				continue
			}
			var view struct {
				Status    string `json:"status"`
				Result    []byte `json:"result"`
				Error     string `json:"error"`
				Recovered bool   `json:"recovered"`
			}
			if err := json.Unmarshal(env.Metadata, &view); err != nil {
				res.fail("poll %s: bad view: %v", j.id, err)
				continue
			}
			switch view.Status {
			case jobservice.StatusSucceeded:
				res.Settled++
				if view.Recovered {
					res.Recovered++
				}
				if bytes.Equal(view.Result, j.expect) {
					res.Exact++
				} else {
					res.Inexact++
					res.fail("%s %s: payload %x, want %x", j.name, j.id, view.Result, j.expect)
				}
			case jobservice.StatusCanceled:
				res.Settled++
				if j.cancelable {
					res.Exact++
				} else {
					res.fail("%s %s: canceled but not cancelable", j.name, j.id)
				}
			case jobservice.StatusFailed:
				res.Settled++
				res.fail("%s %s: failed: %s", j.name, j.id, view.Error)
			default:
				still = append(still, j)
			}
		}
		pending = still
		if len(pending) > 0 {
			time.Sleep(20 * time.Millisecond)
		}
	}
	for _, j := range pending {
		res.Lost++
		res.fail("%s %s: never settled", j.name, j.id)
	}

	res.Steals = fab.Stats().Steals
	res.PeerSteals = fab.Stats().PeerSteals
	verifyLedger(base, res)
	verifyObservability(base, ff, res)
}

// verifyLedger asserts /v1/stats balances after the drain: the service
// accepted exactly the jobs the campaign got a 202 for, every accepted
// job settled once (completed, canceled or failed), and nothing is left
// queued or running. A settle's counter lands just after its status, so
// the ledger is read until it balances or a short budget runs out.
func verifyLedger(base string, res *Result) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, env, _ := do(base, http.MethodGet, "/v1/stats", chaosKey, nil)
		var snap struct {
			Service *jobservice.ServiceStats `json:"service"`
		}
		if code != http.StatusOK || json.Unmarshal(env.Metadata, &snap) != nil || snap.Service == nil {
			res.fail("/v1/stats: HTTP %d or missing service section", code)
			return
		}
		st := snap.Service
		settled := st.Completed + st.Canceled + st.Failed
		if st.Accepted == uint64(res.Submitted) && settled == st.Accepted && st.Queued == 0 && st.Running == 0 {
			return
		}
		if time.Now().After(deadline) {
			res.fail("/v1/stats ledger: accepted %d for %d submitted, completed %d + canceled %d + failed %d, queued %d, running %d",
				st.Accepted, res.Submitted, st.Completed, st.Canceled, st.Failed, st.Queued, st.Running)
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// verifyObservability asserts the health, stats and spans surfaces
// reflect the campaign: /v1/health parses with a sane status, the
// /v1/stats errors section carries the injected-fault code, and
// /v1/spans serves folded spans.
func verifyObservability(base string, ff *frameFaults, res *Result) {
	code, env, _ := do(base, http.MethodGet, "/v1/health", "", nil)
	var hv struct {
		Status string `json:"status"`
	}
	if code != http.StatusOK || json.Unmarshal(env.Metadata, &hv) != nil ||
		(hv.Status != jobservice.HealthOK && hv.Status != jobservice.HealthDegraded) {
		res.fail("/v1/health: HTTP %d status %q", code, hv.Status)
	}

	code, env, _ = do(base, http.MethodGet, "/v1/stats", chaosKey, nil)
	var snap struct {
		Errors *oerrors.CountsSnapshot `json:"errors"`
	}
	if code != http.StatusOK || json.Unmarshal(env.Metadata, &snap) != nil || snap.Errors == nil {
		res.fail("/v1/stats: HTTP %d or missing errors section", code)
	} else if ff.injected.Load() > 0 && snap.Errors.ByCode[oerrors.CodeFrameFault] == 0 {
		res.fail("/v1/stats: %d faults injected but no %q count", ff.injected.Load(), oerrors.CodeFrameFault)
	}

	code, env, _ = do(base, http.MethodGet, "/v1/spans", chaosKey, nil)
	var sv struct {
		Stats spans.Stats `json:"stats"`
	}
	if code != http.StatusOK || json.Unmarshal(env.Metadata, &sv) != nil || sv.Stats.Completed == 0 {
		res.fail("/v1/spans: HTTP %d or no completed spans", code)
	}
}
