package jobservice

import (
	"net/http"
	"testing"
	"time"

	"openmpmca/internal/oerrors"
)

func TestHealthSurface(t *testing.T) {
	env := newTestEnv(t)

	// Health is unauthenticated and "ok" on a fresh service.
	code, resp := env.do(t, http.MethodGet, "/v1/health", "", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /v1/health = %d (%s)", code, resp.Error)
	}
	var hv HealthView
	meta(t, resp, &hv)
	if hv.Status != HealthOK {
		t.Errorf("status = %q, want %q", hv.Status, HealthOK)
	}
	if hv.DomainsLive == 0 || hv.DomainsLost != 0 {
		t.Errorf("domains live/lost = %d/%d", hv.DomainsLive, hv.DomainsLost)
	}
	if len(hv.Fabric) == 0 || hv.Offload != nil {
		t.Errorf("per-domain detail: fabric=%d offload=%d, want fabric only", len(hv.Fabric), len(hv.Offload))
	}

	// Draining a domain degrades health; readmitting restores it. The
	// drain rides the real loss path — the health monitor declares the
	// domain lost after heartbeat silence — so degradation is not
	// instantaneous.
	if code, resp := env.do(t, http.MethodPost, "/v1/domains/1/drain", "key-alice", nil); code != http.StatusOK {
		t.Fatalf("drain = %d (%s)", code, resp.Error)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, resp = env.do(t, http.MethodGet, "/v1/health", "", nil)
		meta(t, resp, &hv)
		if hv.Status == HealthDegraded && hv.DomainsLost == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after drain: status=%q lost=%d, want degraded/1", hv.Status, hv.DomainsLost)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code, resp := env.do(t, http.MethodPost, "/v1/domains/1/readmit", "key-alice", nil); code != http.StatusOK {
		t.Fatalf("readmit = %d (%s)", code, resp.Error)
	}
	_, resp = env.do(t, http.MethodGet, "/v1/health", "", nil)
	meta(t, resp, &hv)
	if hv.Status != HealthOK {
		t.Errorf("after readmit: status = %q, want ok", hv.Status)
	}

	// Closed service: 503 / down.
	if err := env.srv.Close(); err != nil {
		t.Fatal(err)
	}
	code, resp = env.do(t, http.MethodGet, "/v1/health", "", nil)
	if code != http.StatusServiceUnavailable {
		t.Errorf("closed health = %d, want 503", code)
	}
	meta(t, resp, &hv)
	if hv.Status != HealthDown {
		t.Errorf("closed status = %q, want down", hv.Status)
	}
}

// TestJobEventsLatencyHistograms checks the /v1/stats latency section
// against the jobs' own event streams. For every settled job it
// recomputes each interval from the job's view and /events lines, as
// the benchmark harness does; the histograms must hold exactly those
// intervals, bucket for bucket and nanosecond for nanosecond, and each
// histogram's count must equal the settled count of the job kinds it
// covers.
func TestJobEventsLatencyHistograms(t *testing.T) {
	env := newProgressEnv(t)
	const tasks, regions = 24, 4
	var ids []string
	for i := 0; i < tasks; i++ {
		ids = append(ids, env.submit(t, "key-alice", submitRequest{Job: JobSum, Arg: I64Pair(0, int64(100+i))}).ID)
	}
	for i := 0; i < regions; i++ {
		ids = append(ids, env.submit(t, "key-alice", submitRequest{Job: KernelVecSum, Kind: KindParallelFor, N: 4000 + i}).ID)
	}

	want := make(map[string]Histogram)
	add := func(id, name string, from, to int64) {
		if from == 0 || to < from {
			t.Errorf("job %s: %s runs from %d to %d", id, name, from, to)
		}
		d := to - from
		i := 0
		for i < LatencyBuckets-1 && d >= 1000<<i {
			i++
		}
		h := want[name]
		h.Count++
		h.SumNs += d
		h.Buckets[i]++
		want[name] = h
	}
	for _, id := range ids {
		v := env.wait(t, "key-alice", id)
		if v.Status != StatusSucceeded {
			t.Fatalf("job %s: status %q (%s)", id, v.Status, v.Error)
		}
		var accepted, dispatched, sent, done, settled int64
		for _, e := range readEvents(t, env, "key-alice", id) {
			switch e.Type {
			case EventAccepted:
				accepted = e.AtNs
			case EventDispatched:
				dispatched = e.AtNs
			case EventTaskSent:
				if sent == 0 {
					sent = e.AtNs
				}
			case EventTaskDone:
				done = e.AtNs
			case EventSettled:
				settled = e.AtNs
			}
		}
		add(id, "jobservice.accept", v.SubmittedAt.UnixNano(), accepted)
		add(id, "jobservice.queue", accepted, dispatched)
		if v.Kind == KindParallelFor {
			add(id, "offload.region", dispatched, settled)
		} else {
			add(id, "taskfabric.dispatch", dispatched, sent)
			add(id, "taskfabric.remote", sent, done)
			add(id, "jobservice.complete", done, settled)
		}
	}

	// A job's view turns terminal in settle, before complete folds it
	// and counts it: read the section once every job is counted.
	var snap Snapshot
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, resp := env.do(t, http.MethodGet, "/v1/stats", "key-alice", nil)
		if code != http.StatusOK {
			t.Fatalf("GET /v1/stats = %d (%s)", code, resp.Error)
		}
		meta(t, resp, &snap)
		if snap.Service.Completed == uint64(len(ids)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("completed = %d, want %d", snap.Service.Completed, len(ids))
		}
		time.Sleep(5 * time.Millisecond)
	}

	covers := map[string]uint64{
		"jobservice.accept":   tasks + regions,
		"jobservice.queue":    tasks + regions,
		"taskfabric.dispatch": tasks,
		"taskfabric.remote":   tasks,
		"jobservice.complete": tasks,
		"offload.region":      regions,
	}
	if len(snap.Latency) != len(covers) {
		t.Errorf("latency section has %d histograms, want %d: %v", len(snap.Latency), len(covers), snap.Latency)
	}
	for name, n := range covers {
		got, ok := snap.Latency[name]
		if !ok {
			t.Errorf("latency section lacks %s", name)
			continue
		}
		if got.Count != n {
			t.Errorf("%s: count %d, want %d settled jobs", name, got.Count, n)
		}
		if got != want[name] {
			t.Errorf("%s: served %+v, events give %+v", name, got, want[name])
		}
	}
}

func TestStatsCarriesErrorTaxonomy(t *testing.T) {
	env := newTestEnv(t)
	// Blow carol's quota of 2: the refusals must show up as
	// Admission/quota growth in /v1/stats.
	before := oerrors.Counts()
	rejected := 0
	for i := 0; i < 6; i++ {
		code, _ := env.do(t, http.MethodPost, "/v1/jobs", "key-carol",
			submitRequest{Job: JobSpin, Arg: U64(uint64(50_000_000))})
		if code == http.StatusTooManyRequests {
			rejected++
		}
	}
	if rejected == 0 {
		t.Fatal("quota never tripped")
	}
	code, resp := env.do(t, http.MethodGet, "/v1/stats", "key-alice", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /v1/stats = %d (%s)", code, resp.Error)
	}
	var snap Snapshot
	meta(t, resp, &snap)
	if snap.Errors == nil {
		t.Fatal("stats missing errors section")
	}
	delta := snap.Errors.Delta(before)
	if got := delta.ByCode[oerrors.CodeQuota]; got < uint64(rejected) {
		t.Errorf("quota code growth = %d, want >= %d", got, rejected)
	}
	if got := delta.ByCategory[string(oerrors.Admission)]; got < uint64(rejected) {
		t.Errorf("admission category growth = %d, want >= %d", got, rejected)
	}
}
