// Package jobservice turns the one-shot fabric demos into a
// long-running, multi-tenant job service: an HTTP/JSON front end that
// wraps one taskfabric.Fabric — irregular named jobs, and chunked
// parallel-for regions when kernels are bound to its job registry —
// behind a small REST surface, with per-tenant admission control on top.
//
// The API shape follows the incus-osd REST handlers: every response is a
// JSON envelope ({"type":"sync",...} or {"type":"error",...}), endpoints
// live under /v1, and mutations are POSTs. Tenants authenticate with an
// API key (X-API-Key or Authorization: Bearer); each tenant carries a
// quota — the maximum jobs it may have in flight — and a priority class.
// Submissions over quota are refused with HTTP 429 and a Retry-After
// header, mirroring how the runtime itself surfaces saturation
// (WithMaxConcurrentRegions / ErrSaturated) one layer down. Admitted
// jobs enter per-tenant FIFOs; a single dispatcher drains them through a
// bounded dispatch window using smooth weighted round-robin across
// tenants, so a burst-heavy tenant cannot starve the others no matter
// how deep its queue grows.
//
//	POST /v1/jobs                  submit a named job
//	GET  /v1/jobs/{id}?wait=2s     poll or long-poll a result
//	POST /v1/groups                create a completion group
//	GET  /v1/groups/{id}/stream    NDJSON stream of member completions
//	POST /v1/groups/{id}/cancel    cancel the group's queued members
//	GET  /v1/domains               worker domains: health, occupancy, EWMA
//	POST /v1/domains/{id}/drain    take a domain out of service (loss path)
//	POST /v1/domains/{id}/readmit  bring a drained domain back
//	GET  /v1/stats                 unified Snapshot
package jobservice

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"openmpmca/internal/core"
	"openmpmca/internal/durable"
	"openmpmca/internal/oerrors"
	"openmpmca/internal/offload"
	"openmpmca/internal/spans"
	"openmpmca/internal/taskfabric"
)

// ErrClosed is returned by operations on a closed Server. Classified
// Cancel/service_closed.
var ErrClosed = oerrors.Sentinel(oerrors.Cancel, oerrors.CodeServiceClosed,
	"jobservice: server closed")

// config collects the tunables behind the Options.
type config struct {
	off        *taskfabric.Fabric // separate region fabric; nil runs regions on the service's own
	kernels    *offload.Registry
	tenants    []Tenant
	dispatch   int
	retryAfter time.Duration
	spans      *spans.Exporter
	store      *durable.Store
	ownStore   bool // store opened by WithStateDir: Close closes it
}

// Option configures New.
type Option func(*config) error

func defaultConfig() config {
	return config{
		dispatch:   64,
		retryAfter: time.Second,
	}
}

// WithOffloader sends kind=parallel_for jobs to a separate region fabric
// (one built by taskfabric.NewOffloader over kernels) instead of the
// service's own. Without it, regions run on the service's fabric
// whenever kernels are bound to its job registry.
func WithOffloader(o *taskfabric.Fabric, kernels *offload.Registry) Option {
	return func(c *config) error {
		if o == nil || kernels == nil {
			return fmt.Errorf("%w: jobservice: WithOffloader(nil)", core.ErrInvalidOption)
		}
		c.off = o
		c.kernels = kernels
		return nil
	}
}

// WithTenants registers the service's tenants (at least one is
// required).
func WithTenants(ts ...Tenant) Option {
	return func(c *config) error {
		for _, t := range ts {
			if err := t.validate(); err != nil {
				return err
			}
		}
		c.tenants = append(c.tenants, ts...)
		return nil
	}
}

// WithDispatchWindow bounds how many jobs may be inside the fabric at
// once (default 64); admitted jobs past the window wait in their
// tenant's queue.
func WithDispatchWindow(n int) Option {
	return func(c *config) error {
		if n < 1 || n > 4096 {
			return fmt.Errorf("%w: jobservice: WithDispatchWindow(%d): want 1..4096", core.ErrInvalidOption, n)
		}
		c.dispatch = n
		return nil
	}
}

// WithRetryAfter sets the Retry-After hint attached to 429 responses
// (default 1s; rounded up to whole seconds on the wire).
func WithRetryAfter(d time.Duration) Option {
	return func(c *config) error {
		if d <= 0 {
			return fmt.Errorf("%w: jobservice: WithRetryAfter(%v): want > 0", core.ErrInvalidOption, d)
		}
		c.retryAfter = d
		return nil
	}
}

// WithSpans serves a span exporter's folded task (and chunk) lifetimes
// at GET /v1/spans. The exporter should be the one wired into the
// fabric (or fabrics) as their event sink; the service only reads it.
// Without this option /v1/spans answers 404.
func WithSpans(x *spans.Exporter) Option {
	return func(c *config) error {
		if x == nil {
			return fmt.Errorf("%w: jobservice: WithSpans(nil)", core.ErrInvalidOption)
		}
		c.spans = x
		return nil
	}
}

// serviceCounters are the server's monotonic counters.
type serviceCounters struct {
	accepted    atomic.Uint64
	rejected    atomic.Uint64
	rateLimited atomic.Uint64
	dispatched  atomic.Uint64
	completed   atomic.Uint64
	failed      atomic.Uint64
	canceled    atomic.Uint64
	recovered   atomic.Uint64
	replayed    atomic.Uint64
}

// Server is the multi-tenant job service. It implements http.Handler;
// serve it with net/http and shut it down with Close.
type Server struct {
	fab     *taskfabric.Fabric
	jobsReg *taskfabric.Registry
	cfg     config
	regions *taskfabric.Fabric // runs kind=parallel_for jobs over kernels
	kernels *offload.Registry  // nil: no kernels bound, parallel_for refused
	mux     *http.ServeMux

	byKey  map[string]*tenantState
	byName map[string]*tenantState
	order  []*tenantState // registration order; WRR iterates it

	mu     sync.Mutex // guards queues, jobs, groups, WRR state
	jobs   map[string]*jobRec
	groups map[string]*groupRec

	jobSeq   atomic.Uint64
	groupSeq atomic.Uint64

	slots  chan struct{} // dispatch-window tokens
	kick   chan struct{} // cap 1: "queues may have work"
	stopCh chan struct{}
	wg     sync.WaitGroup
	closed atomic.Bool

	st serviceCounters
}

// New builds a job service over the given fabric and job registry. The
// registry must be the one the fabric was built with: the server
// validates submitted job names against it before admission.
func New(fab *taskfabric.Fabric, jobs *taskfabric.Registry, opts ...Option) (*Server, error) {
	if fab == nil || jobs == nil {
		return nil, fmt.Errorf("%w: jobservice: nil fabric or registry", core.ErrInvalidOption)
	}
	cfg := defaultConfig()
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	if len(cfg.tenants) == 0 {
		return nil, fmt.Errorf("%w: jobservice: no tenants configured", core.ErrInvalidOption)
	}
	s := &Server{
		fab:     fab,
		jobsReg: jobs,
		cfg:     cfg,
		byKey:   make(map[string]*tenantState),
		byName:  make(map[string]*tenantState),
		jobs:    make(map[string]*jobRec),
		groups:  make(map[string]*groupRec),
		regions: fab,
		kernels: jobs.Kernels(),
		slots:   make(chan struct{}, cfg.dispatch),
		kick:    make(chan struct{}, 1),
		stopCh:  make(chan struct{}),
	}
	if cfg.off != nil {
		s.regions, s.kernels = cfg.off, cfg.kernels
	}
	for _, t := range cfg.tenants {
		if _, dup := s.byName[t.Name]; dup {
			return nil, fmt.Errorf("%w: jobservice: duplicate tenant %q", core.ErrInvalidOption, t.Name)
		}
		if _, dup := s.byKey[t.Key]; dup {
			return nil, fmt.Errorf("%w: jobservice: duplicate API key (tenant %q)", core.ErrInvalidOption, t.Name)
		}
		ts := &tenantState{Tenant: t, weight: t.Priority.Weight()}
		s.byName[t.Name] = ts
		s.byKey[t.Key] = ts
		s.order = append(s.order, ts)
	}
	for i := 0; i < cfg.dispatch; i++ {
		s.slots <- struct{}{}
	}
	if cfg.store != nil {
		s.recoverFromStore()
	}
	s.routes()
	s.wg.Add(1)
	go s.dispatcher()
	s.kickDispatcher() // recovered queues may already hold work
	return s, nil
}

// Close stops the dispatcher, settles every queued job with ErrClosed
// and waits for in-flight jobs to drain. It does not close the fabrics —
// the caller owns those. Idempotent.
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(s.stopCh)
	s.mu.Lock()
	for _, t := range s.order {
		for _, j := range t.queue {
			if j.cancelQueued() {
				t.inflight--
				s.st.canceled.Add(1)
				s.journalBestEffort(settleEntry(j))
				if j.group != nil {
					defer j.group.deliver(j)
				}
			}
		}
		t.queue = nil
	}
	s.mu.Unlock()
	s.wg.Wait()
	if s.cfg.ownStore {
		return s.cfg.store.Close()
	}
	return nil
}

// ServeHTTP implements http.Handler. The mux's own plain-text 404/405
// responses are rewrapped into the JSON error envelope so every byte the
// service emits is envelope-shaped.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(&envelopeWriter{rw: w}, r)
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s }

// envelopeWriter intercepts non-JSON 404/405 status writes (http.ServeMux
// defaults) and substitutes the JSON error envelope. Handlers' own
// responses set Content-Type: application/json first and pass through
// untouched.
type envelopeWriter struct {
	rw       http.ResponseWriter
	suppress bool // original body dropped; envelope already written
}

func (w *envelopeWriter) Header() http.Header { return w.rw.Header() }

func (w *envelopeWriter) WriteHeader(code int) {
	if (code == http.StatusNotFound || code == http.StatusMethodNotAllowed) &&
		!strings.HasPrefix(w.rw.Header().Get("Content-Type"), "application/json") {
		w.suppress = true
		w.rw.Header().Del("Content-Type")
		w.rw.Header().Del("X-Content-Type-Options")
		writeError(w.rw, code, "%s", strings.ToLower(http.StatusText(code)))
		return
	}
	w.rw.WriteHeader(code)
}

func (w *envelopeWriter) Write(b []byte) (int, error) {
	if w.suppress {
		return len(b), nil
	}
	return w.rw.Write(b)
}

// Flush forwards to the underlying writer so NDJSON streaming works.
func (w *envelopeWriter) Flush() {
	if f, ok := w.rw.(http.Flusher); ok {
		f.Flush()
	}
}

// ---------------------------------------------------------------------------
// Response envelope (incus-osd style).

type apiResponse struct {
	Type       string `json:"type"` // "sync" | "error"
	Status     string `json:"status,omitempty"`
	StatusCode int    `json:"status_code,omitempty"`
	Metadata   any    `json:"metadata,omitempty"`
	Error      string `json:"error,omitempty"`
	ErrorCode  int    `json:"error_code,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeSync(w http.ResponseWriter, code int, metadata any) {
	writeJSON(w, code, apiResponse{Type: "sync", Status: http.StatusText(code), StatusCode: code, Metadata: metadata})
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiResponse{Type: "error", Error: fmt.Sprintf(format, args...), ErrorCode: code})
}

// ---------------------------------------------------------------------------
// Routing and auth.

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /v1", s.apiIndex)
	s.mux.HandleFunc("GET /v1/{$}", s.apiIndex)
	s.mux.HandleFunc("GET /v1/ready", s.apiReady)
	s.mux.HandleFunc("GET /v1/health", s.apiHealth)
	s.mux.HandleFunc("POST /v1/jobs", s.auth(s.apiJobSubmit))
	s.mux.HandleFunc("GET /v1/jobs", s.auth(s.apiJobList))
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.auth(s.apiJobGet))
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.auth(s.apiJobEvents))
	s.mux.HandleFunc("POST /v1/groups", s.auth(s.apiGroupCreate))
	s.mux.HandleFunc("GET /v1/groups/{id}", s.auth(s.apiGroupGet))
	s.mux.HandleFunc("GET /v1/groups/{id}/stream", s.auth(s.apiGroupStream))
	s.mux.HandleFunc("POST /v1/groups/{id}/cancel", s.auth(s.apiGroupCancel))
	s.mux.HandleFunc("GET /v1/domains", s.auth(s.apiDomains))
	s.mux.HandleFunc("POST /v1/domains/{id}/drain", s.auth(s.admin(s.apiDomainDrain)))
	s.mux.HandleFunc("POST /v1/domains/{id}/readmit", s.auth(s.admin(s.apiDomainReadmit)))
	s.mux.HandleFunc("GET /v1/stats", s.auth(s.apiStats))
	s.mux.HandleFunc("GET /v1/spans", s.auth(s.apiSpans))
}

type authedHandler func(w http.ResponseWriter, r *http.Request, t *tenantState)

// tenantOf resolves the caller's tenant from X-API-Key or a bearer
// token.
func (s *Server) tenantOf(r *http.Request) *tenantState {
	key := r.Header.Get("X-API-Key")
	if key == "" {
		if h := r.Header.Get("Authorization"); strings.HasPrefix(h, "Bearer ") {
			key = strings.TrimPrefix(h, "Bearer ")
		}
	}
	if key == "" {
		return nil
	}
	return s.byKey[key]
}

func (s *Server) auth(h authedHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		t := s.tenantOf(r)
		if t == nil {
			writeError(w, http.StatusUnauthorized, "missing or unknown API key")
			return
		}
		if s.closed.Load() {
			writeError(w, http.StatusServiceUnavailable, "service shutting down")
			return
		}
		h(w, r, t)
	}
}

func (s *Server) admin(h authedHandler) authedHandler {
	return func(w http.ResponseWriter, r *http.Request, t *tenantState) {
		if !t.Admin {
			writeError(w, http.StatusForbidden, "tenant %q is not an admin", t.Name)
			return
		}
		h(w, r, t)
	}
}

// ---------------------------------------------------------------------------
// Handlers.

func (s *Server) apiIndex(w http.ResponseWriter, _ *http.Request) {
	writeSync(w, http.StatusOK, []string{
		"/v1/domains",
		"/v1/groups",
		"/v1/health",
		"/v1/jobs",
		"/v1/ready",
		"/v1/spans",
		"/v1/stats",
	})
}

func (s *Server) apiReady(w http.ResponseWriter, _ *http.Request) {
	if s.closed.Load() {
		writeError(w, http.StatusServiceUnavailable, "service shutting down")
		return
	}
	writeSync(w, http.StatusOK, map[string]any{
		"domains": s.fab.Domains(),
		"tenants": len(s.order),
	})
}

func (s *Server) apiJobSubmit(w http.ResponseWriter, r *http.Request, t *tenantState) {
	var req submitRequest
	body, err := readSubmitBody(w, r)
	if err == nil {
		req, err = decodeSubmit(body)
	}
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			// Refused before admission: nothing queued, journaled or
			// counted against the tenant's quota.
			_ = oerrors.New(oerrors.Admission, oerrors.CodeBodyTooLarge,
				"jobservice: submit body over limit")
			writeError(w, http.StatusRequestEntityTooLarge, "request body over %d bytes", maxSubmitBody)
			return
		}
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.Kind == "" {
		req.Kind = KindTask
	}
	switch req.Kind {
	case KindTask:
		if _, ok := s.jobsReg.Lookup(req.Job); !ok {
			writeError(w, http.StatusNotFound, "unknown job %q", req.Job)
			return
		}
	case KindParallelFor:
		if s.kernels == nil {
			writeError(w, http.StatusBadRequest, "no kernels bound: kind %q unavailable", req.Kind)
			return
		}
		if _, ok := s.kernels.Lookup(req.Job); !ok {
			writeError(w, http.StatusNotFound, "unknown kernel %q", req.Job)
			return
		}
		if req.N < 1 {
			writeError(w, http.StatusBadRequest, "kind %q needs n >= 1, got %d", req.Kind, req.N)
			return
		}
		if req.N > maxRegionIters {
			_ = oerrors.New(oerrors.Admission, oerrors.CodeRegionTooLarge,
				"jobservice: parallel_for n over limit")
			writeError(w, http.StatusBadRequest, "kind %q takes n <= %d, got %d", req.Kind, maxRegionIters, req.N)
			return
		}
	default:
		writeError(w, http.StatusBadRequest, "unknown kind %q (want %q or %q)", req.Kind, KindTask, KindParallelFor)
		return
	}

	var g *groupRec
	s.mu.Lock()
	if req.Group != "" {
		g = s.groups[req.Group]
		if g == nil || g.tenant != t {
			s.mu.Unlock()
			writeError(w, http.StatusNotFound, "unknown group %q", req.Group)
			return
		}
	}
	// Per-tenant admission, two gates. The token bucket bounds the
	// submission *rate* (tokens/sec with a burst allowance), the quota
	// bounds jobs *in flight*. Both refuse with HTTP 429; the bucket's
	// Retry-After is computed from the deficit, the quota's is the
	// configured hint.
	if ok, wait := t.takeToken(time.Now()); !ok {
		t.rateLimited.Add(1)
		s.st.rateLimited.Add(1)
		s.mu.Unlock()
		_ = oerrors.New(oerrors.Admission, oerrors.CodeRateLimited,
			"jobservice: tenant over rate")
		secs := int((wait + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeError(w, http.StatusTooManyRequests, "tenant %q over rate (%g/s, burst %d)", t.Name, t.Rate, t.Burst)
		return
	}
	// Saturation surfaces exactly like the runtime's ErrSaturated —
	// backpressure, retry later — but as HTTP 429.
	if t.inflight >= t.Quota {
		t.rejected.Add(1)
		s.st.rejected.Add(1)
		s.mu.Unlock()
		// Counted in the taxonomy even though the refusal surfaces as
		// HTTP 429, not a Go error: New records one Admission/quota.
		_ = oerrors.New(oerrors.Admission, oerrors.CodeQuota,
			"jobservice: tenant over quota")
		secs := int((s.cfg.retryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeError(w, http.StatusTooManyRequests, "tenant %q over quota (%d jobs in flight)", t.Name, t.Quota)
		return
	}
	j := &jobRec{
		id:        fmt.Sprintf("j-%d", s.jobSeq.Add(1)),
		tenant:    t,
		kind:      req.Kind,
		name:      req.Job,
		arg:       req.Arg,
		n:         req.N,
		group:     g,
		events:    new(eventLog),
		done:      make(chan struct{}),
		status:    StatusQueued,
		submitted: time.Now(),
	}
	t.inflight++
	t.jobs = append(t.jobs, j.id)
	s.jobs[j.id] = j
	if g != nil {
		g.addMember()
	}
	s.mu.Unlock()
	// Durability gate: the accept record — payload and all — must be on
	// disk before the 202 leaves, so an acknowledged job survives any
	// crash. The job is not queued for dispatch until the record is
	// durable.
	if err := s.journal(durable.Entry{
		Op: durable.OpAccept, ID: j.id, At: j.submitted.UnixNano(),
		Tenant: t.Name, Kind: j.kind, Name: j.name, Arg: j.arg, N: j.n, Group: req.Group,
	}); err != nil {
		s.mu.Lock()
		t.inflight--
		delete(s.jobs, j.id)
		for i := len(t.jobs) - 1; i >= 0; i-- {
			if t.jobs[i] == j.id {
				t.jobs = append(t.jobs[:i], t.jobs[i+1:]...)
				break
			}
		}
		if g != nil {
			g.mu.Lock()
			g.members--
			g.pending--
			g.mu.Unlock()
		}
		s.mu.Unlock()
		writeError(w, http.StatusInternalServerError, "state store: %v", err)
		return
	}
	// Log the accept before queueing: a dispatcher already awake may
	// launch the job as soon as it is in the queue.
	j.progress(JobEvent{Type: EventAccepted, Chunk: -1})
	s.mu.Lock()
	t.queue = append(t.queue, j)
	s.mu.Unlock()
	t.accepted.Add(1)
	s.st.accepted.Add(1)
	s.kickDispatcher()
	writeSync(w, http.StatusAccepted, j.view())
}

func (s *Server) apiJobList(w http.ResponseWriter, _ *http.Request, t *tenantState) {
	s.mu.Lock()
	ids := append([]string(nil), t.jobs...)
	views := make([]JobView, 0, len(ids))
	for _, id := range ids {
		if j := s.jobs[id]; j != nil {
			views = append(views, j.view())
		}
	}
	s.mu.Unlock()
	writeSync(w, http.StatusOK, views)
}

func (s *Server) apiJobGet(w http.ResponseWriter, r *http.Request, t *tenantState) {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil || j.tenant != t {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
		d, err := time.ParseDuration(waitStr)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad wait %q: %v", waitStr, err)
			return
		}
		// Long-poll: return early when the job settles; on timeout the
		// current (possibly still running) view is returned.
		timer := time.NewTimer(d)
		defer timer.Stop()
		select {
		case <-j.done:
		case <-timer.C:
		case <-r.Context().Done():
		case <-s.stopCh:
		}
	}
	writeSync(w, http.StatusOK, j.view())
}

func (s *Server) apiGroupCreate(w http.ResponseWriter, _ *http.Request, t *tenantState) {
	g := &groupRec{
		id:     fmt.Sprintf("g-%d", s.groupSeq.Add(1)),
		tenant: t,
		notify: make(chan struct{}, 1),
	}
	// Durable before visible, like job acceptance: members will
	// reference the group across restarts.
	if err := s.journal(durable.Entry{Op: durable.OpGroup, ID: g.id, Tenant: t.Name}); err != nil {
		writeError(w, http.StatusInternalServerError, "state store: %v", err)
		return
	}
	s.mu.Lock()
	s.groups[g.id] = g
	s.mu.Unlock()
	writeSync(w, http.StatusCreated, g.view())
}

func (s *Server) groupOf(r *http.Request, t *tenantState) *groupRec {
	s.mu.Lock()
	g := s.groups[r.PathValue("id")]
	s.mu.Unlock()
	if g == nil || g.tenant != t {
		return nil
	}
	return g
}

func (s *Server) apiGroupGet(w http.ResponseWriter, r *http.Request, t *tenantState) {
	g := s.groupOf(r, t)
	if g == nil {
		writeError(w, http.StatusNotFound, "unknown group %q", r.PathValue("id"))
		return
	}
	writeSync(w, http.StatusOK, g.view())
}

// streamEvent is one NDJSON line of a group stream.
type streamEvent struct {
	Type string   `json:"type"` // "job" | "progress" | "drained"
	Job  *JobView `json:"job,omitempty"`
	// Progress events: the member's id and its progress line.
	JobID string    `json:"job_id,omitempty"`
	Event *JobEvent `json:"event,omitempty"`
	Group GroupView `json:"group"`
}

// apiGroupStream streams the group as NDJSON: member progress lines
// (chunk/task completions) as they happen, each settled member exactly
// once across all streamers, and a final "drained" event once no
// member is outstanding or undelivered.
func (s *Server) apiGroupStream(w http.ResponseWriter, r *http.Request, t *tenantState) {
	g := s.groupOf(r, t)
	if g == nil {
		writeError(w, http.StatusNotFound, "unknown group %q", r.PathValue("id"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		g.mu.Lock()
		if len(g.progress) > 0 {
			p := g.progress[0]
			g.progress = g.progress[1:]
			if len(g.progress) > 0 || len(g.ready) > 0 {
				select {
				case g.notify <- struct{}{}:
				default:
				}
			}
			g.mu.Unlock()
			e := p.event
			if enc.Encode(streamEvent{Type: "progress", JobID: p.jobID, Event: &e, Group: g.view()}) != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
			continue
		}
		if len(g.ready) > 0 {
			j := g.ready[0]
			g.ready = g.ready[1:]
			if len(g.ready) > 0 {
				select {
				case g.notify <- struct{}{}:
				default:
				}
			}
			g.mu.Unlock()
			v := j.view()
			if enc.Encode(streamEvent{Type: "job", Job: &v, Group: g.view()}) != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
			continue
		}
		drained := g.pending == 0
		g.mu.Unlock()
		if drained {
			_ = enc.Encode(streamEvent{Type: "drained", Group: g.view()})
			return
		}
		select {
		case <-g.notify:
		case <-r.Context().Done():
			return
		case <-s.stopCh:
			return
		}
	}
}

// apiGroupCancel cancels the group's queued members; running members
// finish normally and still stream.
func (s *Server) apiGroupCancel(w http.ResponseWriter, r *http.Request, t *tenantState) {
	g := s.groupOf(r, t)
	if g == nil {
		writeError(w, http.StatusNotFound, "unknown group %q", r.PathValue("id"))
		return
	}
	g.mu.Lock()
	g.canceled = true
	g.mu.Unlock()
	var canceled []*jobRec
	s.mu.Lock()
	for _, j := range s.jobs {
		if j.group != g {
			continue
		}
		if j.cancelQueued() {
			j.tenant.inflight--
			s.st.canceled.Add(1)
			canceled = append(canceled, j)
		}
	}
	s.mu.Unlock()
	for _, j := range canceled {
		s.journalBestEffort(settleEntry(j))
		g.deliver(j)
	}
	writeSync(w, http.StatusOK, g.view())
}

// DomainsView is the GET /v1/domains body: the fabric's worker fleet
// (always) and the separate region fabric's (only with WithOffloader).
type DomainsView struct {
	Fabric  []taskfabric.DomainInfo `json:"fabric"`
	Offload []taskfabric.DomainInfo `json:"offload,omitempty"`
}

func (s *Server) apiDomains(w http.ResponseWriter, _ *http.Request, _ *tenantState) {
	v := DomainsView{Fabric: s.fab.DomainInfos()}
	if s.cfg.off != nil {
		v.Offload = s.cfg.off.DomainInfos()
	}
	writeSync(w, http.StatusOK, v)
}

func (s *Server) domainID(r *http.Request) (int, error) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		return 0, fmt.Errorf("bad domain id %q", r.PathValue("id"))
	}
	return id, nil
}

// apiDomainDrain takes fabric domain {id} out of service through the
// loss path: the domain is killed, the health monitor declares it lost,
// and its in-flight tasks are reclaimed and re-executed — exactly the
// recovery machinery a real crash exercises. Accepted jobs keep their
// results.
func (s *Server) apiDomainDrain(w http.ResponseWriter, r *http.Request, _ *tenantState) {
	id, err := s.domainID(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := s.fab.KillDomain(id); err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeSync(w, http.StatusOK, map[string]any{"id": id, "state": "draining"})
}

// apiDomainReadmit brings a drained (lost) domain back into service.
func (s *Server) apiDomainReadmit(w http.ResponseWriter, r *http.Request, _ *tenantState) {
	id, err := s.domainID(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := s.fab.ReadmitDomain(id); err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	writeSync(w, http.StatusOK, map[string]any{"id": id, "state": "live"})
}

func (s *Server) apiStats(w http.ResponseWriter, _ *http.Request, _ *tenantState) {
	writeSync(w, http.StatusOK, s.Snapshot())
}

// Snapshot assembles the unified stats umbrella from every layer the
// service fronts.
func (s *Server) Snapshot() Snapshot {
	hostStats := s.fab.HostStats()
	fabStats := s.fab.Stats()
	svc := s.ServiceStats()
	snap := Snapshot{Core: &hostStats, Fabric: &fabStats, Service: &svc}
	if s.kernels != nil {
		regions := s.regions.RegionStats()
		snap.Offload = &regions
	}
	errCounts := oerrors.Counts()
	snap.Errors = &errCounts
	snap.Durable = s.DurableStats()
	return snap
}

// ServiceStats snapshots the admission/dispatch counters and live queue
// state.
func (s *Server) ServiceStats() ServiceStats {
	st := ServiceStats{
		Accepted:    s.st.accepted.Load(),
		Rejected:    s.st.rejected.Load(),
		RateLimited: s.st.rateLimited.Load(),
		Dispatched:  s.st.dispatched.Load(),
		Completed:   s.st.completed.Load(),
		Failed:      s.st.failed.Load(),
		Canceled:    s.st.canceled.Load(),
		Recovered:   s.st.recovered.Load(),
		Replayed:    s.st.replayed.Load(),
	}
	s.mu.Lock()
	for _, t := range s.order {
		st.Queued += len(t.queue)
		st.Tenants = append(st.Tenants, TenantStats{
			Name:        t.Name,
			Priority:    t.Priority,
			Weight:      t.weight,
			Quota:       t.Quota,
			Rate:        t.Rate,
			Burst:       t.Burst,
			InFlight:    t.inflight,
			Queued:      len(t.queue),
			Accepted:    t.accepted.Load(),
			Rejected:    t.rejected.Load(),
			RateLimited: t.rateLimited.Load(),
			Completed:   t.completed.Load(),
		})
	}
	s.mu.Unlock()
	running := int(st.Dispatched) - int(st.Completed+st.Failed)
	if running < 0 {
		running = 0
	}
	st.Running = running
	return st
}

// ---------------------------------------------------------------------------
// Dispatcher.

func (s *Server) kickDispatcher() {
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// dispatcher is the single goroutine draining tenant queues into the
// fabric: it acquires a dispatch-window slot, picks the next
// tenant by smooth weighted round-robin, pops that tenant's oldest
// uncanceled job and launches it. Slots are returned by the per-job
// completion goroutines, which kick the dispatcher awake again.
func (s *Server) dispatcher() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stopCh:
			return
		case <-s.kick:
		}
		for {
			select {
			case <-s.slots:
			default:
				// Window full; a completion will kick us.
				goto wait
			}
			j := s.nextJob()
			if j == nil {
				s.slots <- struct{}{}
				goto wait
			}
			s.launch(j)
		}
	wait:
	}
}

// nextJob pops the next dispatchable job under the fairness policy, or
// nil when every queue is empty.
func (s *Server) nextJob() *jobRec {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		t := s.nextTenant()
		if t == nil {
			return nil
		}
		for len(t.queue) > 0 {
			j := t.queue[0]
			t.queue = t.queue[1:]
			if j.claim() {
				return j
			}
			// Canceled while queued: already settled, just dropped.
		}
	}
}

// launch hands one claimed job to its executor and spawns the completion
// waiter that settles it and returns the dispatch slot.
func (s *Server) launch(j *jobRec) {
	s.st.dispatched.Add(1)
	// A lost dispatch record only costs a redundant deterministic
	// re-execution after a crash, so it does not gate the launch.
	s.journalBestEffort(durable.Entry{Op: durable.OpDispatch, ID: j.id})
	j.progress(JobEvent{Type: EventDispatched, Chunk: -1})
	finish := func(res []byte, err error) {
		s.complete(j, res, err)
		s.slots <- struct{}{}
		s.kickDispatcher()
	}
	if j.kind == KindParallelFor {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			res, err := s.regions.ParallelForObserved(j.name, j.n, j.arg, func(chunk, total, domain int) {
				j.progress(JobEvent{Type: EventChunk, Chunk: chunk, Total: total, Domain: domainOf(domain)})
			})
			finish(res, err)
		}()
		return
	}
	h, err := s.fab.SubmitJobObserved(j.name, j.arg, j.observe)
	if err != nil {
		finish(nil, err)
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		res, err := h.Wait(taskfabric.TimeoutInfinite)
		finish(res, err)
	}()
}

// complete settles a dispatched job. A result recovered from a lost
// domain (ErrDomainLost) is complete and correct — it settles as a
// success with the recovered flag set; so is a job re-executed after a
// restart (replayed flag).
func (s *Server) complete(j *jobRec, res []byte, err error) {
	recovered := errors.Is(err, offload.ErrDomainLost) || j.replayed
	errMsg := ""
	if err != nil && !errors.Is(err, offload.ErrDomainLost) {
		errMsg = err.Error()
	}
	j.settle(res, errMsg, recovered)
	s.journalBestEffort(settleEntry(j))
	s.mu.Lock()
	j.tenant.inflight--
	s.mu.Unlock()
	if errMsg == "" {
		j.tenant.completed.Add(1)
		s.st.completed.Add(1)
		if recovered {
			s.st.recovered.Add(1)
		}
	} else {
		s.st.failed.Add(1)
	}
	if j.group != nil {
		j.group.deliver(j)
	}
}
