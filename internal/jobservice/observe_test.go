package jobservice

import (
	"net/http"
	"testing"
	"time"

	"openmpmca/internal/oerrors"
	"openmpmca/internal/spans"
	"openmpmca/internal/trace"
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

func TestSpansEndpoint(t *testing.T) {
	// Without WithSpans the endpoint 404s.
	bare := newTestEnv(t)
	if code, _ := bare.do(t, http.MethodGet, "/v1/spans", "key-bob", nil); code != http.StatusNotFound {
		t.Errorf("unwired /v1/spans = %d, want 404", code)
	}

	sp := spans.NewExporter(256)
	env := newTestEnv(t, WithSpans(sp))
	// The exporter only sees events it is wired into as a sink; feed it
	// directly — the wiring contract (fabric/offload sinks) is covered by
	// the span package's own tests and cmd/ompmca-serve.
	sp.Event(trace.FabricEvent{Kind: trace.EvTaskSend, Task: 7, Domain: 1, Victim: -1})
	sp.Event(trace.FabricEvent{Kind: trace.EvTaskRecv, Task: 7, Domain: 1, Victim: -1})

	if code, _ := env.do(t, http.MethodGet, "/v1/spans", "", nil); code != http.StatusUnauthorized {
		t.Errorf("unauthenticated /v1/spans = %d, want 401", code)
	}
	code, resp := env.do(t, http.MethodGet, "/v1/spans", "key-bob", nil)
	if code != http.StatusOK {
		t.Fatalf("GET /v1/spans = %d (%s)", code, resp.Error)
	}
	var view spans.View
	meta(t, resp, &view)
	if view.Stats.Completed != 1 || len(view.Spans) != 1 {
		t.Errorf("view = %+v, want one completed span", view.Stats)
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
