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
// jobs enter per-tenant FIFOs, drained through a bounded dispatch window
// by smooth weighted round-robin across tenants, so a burst-heavy tenant
// cannot starve the others no matter how deep its queue grows. There is
// no dispatcher goroutine: an accept fills a free slot once its 202 has
// left, and a completion refills the slot it frees.
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
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"openmpmca/internal/core"
	"openmpmca/internal/durable"
	"openmpmca/internal/oerrors"
	"openmpmca/internal/offload"
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
	store      *durable.Store // opened by WithStateDir; Close closes it
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

	byKey  map[string]*tenantState
	byName map[string]*tenantState
	order  []*tenantState // registration order; WRR iterates it

	mu      sync.Mutex         // guards queues, jobs, settled, groups, WRR state, free
	jobs    map[string]*jobRec // queued and running jobs
	settled settledJobs
	groups  map[string]*groupRec
	free    int // dispatch-window slots no launched job holds; > 0 only while every queue is empty

	replayedAt int64 // the recovery instant, set in New: a replayed event's stamp when the journal holds none

	jobSeq   atomic.Uint64
	groupSeq atomic.Uint64

	stopCh chan struct{}
	wg     sync.WaitGroup // launched jobs, each until it has settled
	closed atomic.Bool

	// appendEntry journals one entry: the store's Append when a store
	// is attached, nil without one.
	appendEntry func(durable.Entry) error

	st  serviceCounters
	lat latencyHists
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
		free:    cfg.dispatch,
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
	if cfg.store != nil {
		s.appendEntry = cfg.store.Append
		s.recoverFromStore()
		// Recovered queues may hold work: fill the window from them.
		for s.dispatchOne() {
		}
	}
	return s, nil
}

// Close settles every queued job canceled and waits for launched jobs
// to settle. It does not close the fabrics — the caller owns those.
// Idempotent. Once Close has drained the queues no job is launched: a
// freed slot finds them empty, and an accept still in flight settles
// its job canceled instead of queueing it.
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(s.stopCh)
	s.mu.Lock()
	var canceled []*jobRec
	for _, t := range s.order {
		for _, j := range t.queue {
			if j.cancelQueued() {
				t.inflight--
				s.st.canceled.Add(1)
				canceled = append(canceled, j)
			}
		}
		t.queue = nil
	}
	s.mu.Unlock()
	for _, j := range canceled {
		s.retire(j)
	}
	s.wg.Wait()
	if s.cfg.store != nil {
		return s.cfg.store.Close()
	}
	return nil
}

// ServeHTTP implements http.Handler. The mux's own plain-text 404/405
// responses are rewrapped into the JSON error envelope so every byte the
// service emits is envelope-shaped.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ew := envelopeWriters.Get().(*envelopeWriter)
	*ew = envelopeWriter{rw: w, s: s}
	routes().ServeHTTP(ew, r)
	*ew = envelopeWriter{}
	envelopeWriters.Put(ew)
}

// envelopeWriters are the wrappers ServeHTTP hands its handlers, reused
// once the handler has returned: net/http drops a handler's writer then.
var envelopeWriters = sync.Pool{New: func() any { return new(envelopeWriter) }}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s }

// envelopeWriter intercepts non-JSON 404/405 status writes (http.ServeMux
// defaults) and substitutes the JSON error envelope. Handlers' own
// responses set Content-Type: application/json first and pass through
// untouched.
type envelopeWriter struct {
	rw       http.ResponseWriter
	s        *Server // the server the request is for
	suppress bool    // original body dropped; envelope already written
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

// routes is the service's route table, built once per process. A
// handler finds its Server on the envelopeWriter ServeHTTP wraps every
// response in, so the table holds no Server and no request allocates for
// it.
var routes = sync.OnceValue(func() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1", public((*Server).apiIndex))
	mux.HandleFunc("GET /v1/{$}", public((*Server).apiIndex))
	mux.HandleFunc("GET /v1/ready", public((*Server).apiReady))
	mux.HandleFunc("GET /v1/health", public((*Server).apiHealth))
	mux.HandleFunc("POST /v1/jobs", auth((*Server).apiJobSubmit))
	mux.HandleFunc("GET /v1/jobs", auth((*Server).apiJobList))
	mux.HandleFunc("GET /v1/jobs/{id}", auth((*Server).apiJobGet))
	mux.HandleFunc("GET /v1/jobs/{id}/events", auth((*Server).apiJobEvents))
	mux.HandleFunc("POST /v1/groups", auth((*Server).apiGroupCreate))
	mux.HandleFunc("GET /v1/groups/{id}", auth((*Server).apiGroupGet))
	mux.HandleFunc("GET /v1/groups/{id}/stream", auth((*Server).apiGroupStream))
	mux.HandleFunc("POST /v1/groups/{id}/cancel", auth((*Server).apiGroupCancel))
	mux.HandleFunc("GET /v1/domains", auth((*Server).apiDomains))
	mux.HandleFunc("POST /v1/domains/{id}/drain", auth(admin((*Server).apiDomainDrain)))
	mux.HandleFunc("POST /v1/domains/{id}/readmit", auth(admin((*Server).apiDomainReadmit)))
	mux.HandleFunc("GET /v1/stats", auth((*Server).apiStats))
	return mux
})

type authedHandler func(s *Server, w http.ResponseWriter, r *http.Request, t *tenantState)

// serverOf returns the Server a request is served by: the one whose
// ServeHTTP wrapped w. Served any other way, the route table has no
// Server; serverOf then answers with a 500 envelope and returns nil.
func serverOf(w http.ResponseWriter) *Server {
	if ew, ok := w.(*envelopeWriter); ok {
		return ew.s
	}
	writeError(w, http.StatusInternalServerError, "route table served outside a Server")
	return nil
}

// tenantOf resolves the caller's tenant from X-API-Key or a bearer
// token.
func (s *Server) tenantOf(r *http.Request) *tenantState {
	key := r.Header.Get("X-Api-Key") // X-API-Key in canonical form, which Get looks up without allocating
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

// public routes to a handler that needs no tenant.
func public(h func(s *Server, w http.ResponseWriter, r *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s := serverOf(w); s != nil {
			h(s, w, r)
		}
	}
}

func auth(h authedHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s := serverOf(w)
		if s == nil {
			return
		}
		t := s.tenantOf(r)
		if t == nil {
			writeError(w, http.StatusUnauthorized, "missing or unknown API key")
			return
		}
		if s.closed.Load() {
			writeError(w, http.StatusServiceUnavailable, "service shutting down")
			return
		}
		h(s, w, r, t)
	}
}

func admin(h authedHandler) authedHandler {
	return func(s *Server, w http.ResponseWriter, r *http.Request, t *tenantState) {
		if !t.Admin {
			writeError(w, http.StatusForbidden, "tenant %q is not an admin", t.Name)
			return
		}
		h(s, w, r, t)
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
	id := string(strconv.AppendUint(append(make([]byte, 0, 24), "j-"...), s.jobSeq.Add(1), 10))
	j := newJob(durable.JobState{
		ID: id, Tenant: t.Name, Kind: req.Kind, Name: req.Job, Arg: req.Arg, N: req.N,
		Group: req.Group, SubmittedNs: time.Now().UnixNano(),
	}, t, g)
	t.inflight++
	t.jobs = append(t.jobs, id)
	s.jobs[id] = j
	if g != nil {
		g.addMember()
	}
	s.mu.Unlock()
	// Durability gate: the accept record — payload and all — must be on
	// disk before the 202 leaves, so an acknowledged job survives any
	// crash. The job is not queued for dispatch until the record is
	// durable.
	if err := s.journal(durable.Entry{
		Op: durable.OpAccept, ID: id, At: j.st.SubmittedNs,
		Tenant: t.Name, Kind: j.st.Kind, Name: j.st.Name, Arg: j.st.Arg, N: j.st.N, Group: req.Group,
	}); err != nil {
		s.mu.Lock()
		t.inflight--
		delete(s.jobs, id)
		for i := len(t.jobs) - 1; i >= 0; i-- {
			if t.jobs[i] == id {
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
	t.accepted.Add(1)
	s.st.accepted.Add(1)
	// The receipt leaves before the job is queued: its dispatch (and,
	// when durable, the dispatch record's append) never sits between
	// an accept and its 202.
	st := j.state()
	writeJob(w, http.StatusAccepted, &st)
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
	s.run(s.enqueue(j))
}

func (s *Server) apiJobList(w http.ResponseWriter, _ *http.Request, t *tenantState) {
	// The jobs are found under s.mu and rendered outside it.
	s.mu.Lock()
	found := make([]jobRef, 0, len(t.jobs))
	for _, id := range t.jobs {
		if f := s.findLocked(id, t); f.found() {
			found = append(found, f)
		}
	}
	s.mu.Unlock()
	bp := renderBufs.Get().(*[]byte)
	b := append(appendSyncOpen((*bp)[:0], http.StatusOK), '[')
	for i, f := range found {
		if i > 0 {
			b = append(b, ',')
		}
		st := f.state()
		b = appendJob(b, &st)
	}
	writeRendered(w, http.StatusOK, bp, appendSyncClose(append(b, ']')))
}

func (s *Server) apiJobGet(w http.ResponseWriter, r *http.Request, t *tenantState) {
	f := s.jobOf(r, t)
	if !f.found() {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	if waitStr := queryValue(r.URL.RawQuery, "wait"); waitStr != "" {
		d, err := time.ParseDuration(waitStr)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad wait %q: %v", waitStr, err)
			return
		}
		// Long-poll a live job: return early when it settles; on timeout
		// the current (possibly still running) view is returned. A job
		// found settled arms no timer.
		if f.j != nil {
			timer := waitTimer(d)
			select {
			case <-f.j.done:
			case <-timer.C:
			case <-r.Context().Done():
			case <-s.stopCh:
			}
			releaseTimer(timer)
		}
	}
	st := f.state()
	writeJob(w, http.StatusOK, &st)
}

// queryValue returns the first value of key in the raw query q, as
// url.ParseQuery(q).Get(key) would, without building the map: pairs
// split at '&', a pair without '=' has the empty value, a pair holding a
// ';' or a malformed escape is skipped, and keys and values are
// query-unescaped.
func queryValue(q, key string) string {
	for q != "" {
		var pair string
		pair, q, _ = strings.Cut(q, "&")
		if strings.Contains(pair, ";") {
			continue
		}
		k, v, _ := strings.Cut(pair, "=")
		k, err := url.QueryUnescape(k)
		if err != nil || k != key {
			continue
		}
		if v, err = url.QueryUnescape(v); err == nil {
			return v
		}
	}
	return ""
}

// waitTimers are the long-polls' timers, reused instead of allocated
// per poll.
var waitTimers sync.Pool

// waitTimer returns a timer that fires once d has passed.
func waitTimer(d time.Duration) *time.Timer {
	if t, ok := waitTimers.Get().(*time.Timer); ok {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

// releaseTimer stops t and drains a tick nobody received, so its next
// user starts clean, and returns it to waitTimers.
func releaseTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
	waitTimers.Put(t)
}

// jobOf finds the caller's job named by the request path.
func (s *Server) jobOf(r *http.Request, t *tenantState) jobRef {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.findLocked(r.PathValue("id"), t)
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

// apiGroupStream streams the group as NDJSON: member progress lines
// (chunk/task completions) as they happen, each settled member exactly
// once across all streamers, and a final "drained" event once no
// member is outstanding or undelivered. Each wake takes everything
// queued under one lock hold and sends it as one write and one flush:
// progress lines, then job lines, then "drained", all carrying the
// group's view as of that hold.
func (s *Server) apiGroupStream(w http.ResponseWriter, r *http.Request, t *tenantState) {
	g := s.groupOf(r, t)
	if g == nil {
		writeError(w, http.StatusNotFound, "unknown group %q", r.PathValue("id"))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	bp := renderBufs.Get().(*[]byte)
	defer putRender(bp)
	for {
		g.mu.Lock()
		progress, ready := g.progress, g.ready
		g.progress, g.ready = nil, nil
		drained := g.pending == 0
		gv := g.viewLocked()
		g.mu.Unlock()

		b := (*bp)[:0]
		for i := range progress {
			b = appendStreamLine(b, "progress", nil, &progress[i], &gv)
		}
		for _, sj := range ready {
			b = appendStreamLine(b, "job", sj.JobState, nil, &gv)
		}
		if drained {
			b = appendStreamLine(b, "drained", nil, nil, &gv)
		}
		*bp = b
		if len(b) > 0 {
			if _, err := w.Write(b); err != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if drained {
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
		if j.group == g && j.cancelQueued() {
			j.tenant.inflight--
			s.st.canceled.Add(1)
			canceled = append(canceled, j)
		}
	}
	s.mu.Unlock()
	for _, j := range canceled {
		s.retire(j)
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
	snap.Latency = s.lat.snapshot()
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
// Dispatch.
//
// No goroutine dispatches. The window's free slots are a count under
// s.mu, and every change that could let a queued job run takes the job
// in the same lock hold: an accept claims a free slot for its job once
// the 202 has left, and a completion hands the slot it frees to the
// WRR-next queued job. So a free slot implies empty queues, and a job
// never waits on a wake-up.

// enqueue queues an acknowledged job and returns it when it took a free
// window slot instead, for the caller to launch; on a closed server it
// settles the job canceled. The accepted event is stamped here, once the
// 202 has left and before the job can run.
func (s *Server) enqueue(j *jobRec) *jobRec {
	j.accepted = time.Now().UnixNano()
	j.progress(event{at: j.accepted, typ: EventAccepted, chunk: -1, domain: noDomain})
	s.mu.Lock()
	if s.closed.Load() {
		// Close has drained the queues, or will once it holds s.mu; a job
		// queued now would never settle.
		canceled := j.cancelQueued()
		if canceled {
			j.tenant.inflight--
			s.st.canceled.Add(1)
		}
		s.mu.Unlock()
		if canceled {
			s.retire(j)
		}
		return nil
	}
	if s.free == 0 {
		j.tenant.queue = append(j.tenant.queue, j)
		s.mu.Unlock()
		return nil
	}
	// A free slot implies empty queues, so j is the WRR-next job (and
	// smooth WRR over one backlogged tenant leaves its credit as it
	// was): it takes the slot without passing through the queue, unless
	// a group cancel has settled it since its 202.
	if !j.claim() {
		s.mu.Unlock()
		return nil
	}
	s.free--
	s.wg.Add(1)
	s.mu.Unlock()
	return j
}

// dispatchOneLocked takes a free window slot for the WRR-next claimable
// job and returns that job, for the caller to launch outside the lock;
// nil when no slot is free or every queue is empty. The job holds s.wg
// until it has settled. Caller holds s.mu.
func (s *Server) dispatchOneLocked() *jobRec {
	if s.free == 0 {
		return nil
	}
	j := s.nextJob()
	if j == nil {
		return nil
	}
	s.free--
	s.wg.Add(1)
	return j
}

// dispatchOne launches the WRR-next job into a free window slot and
// reports whether there was one to launch.
func (s *Server) dispatchOne() bool {
	s.mu.Lock()
	j := s.dispatchOneLocked()
	s.mu.Unlock()
	s.run(j)
	return j != nil
}

// nextJob pops the next dispatchable job under the fairness policy, or
// nil when every queue is empty. Caller holds s.mu.
func (s *Server) nextJob() *jobRec {
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

// run launches j (nil for none), which holds a window slot, and then
// each job that takes over a slot freed by a launch the fabric refused.
func (s *Server) run(j *jobRec) {
	for j != nil {
		j = s.launch(j)
	}
}

// launch hands one claimed job to its executor. A task job settles in
// its task's completion, which the fabric runs on the goroutine that
// settled the task, and which launches the job its slot goes to; a
// region runs on a goroutine of its own. A job the fabric refuses
// settles here, and launch returns the job its slot went to.
func (s *Server) launch(j *jobRec) *jobRec {
	s.st.dispatched.Add(1)
	// A lost dispatch record only costs a redundant deterministic
	// re-execution after a crash, so it does not gate the launch.
	// claim stamped j.started under s.mu and nothing writes it again,
	// so the record carries the time a restart restores.
	s.journalBestEffort(durable.Entry{Op: durable.OpDispatch, ID: j.st.ID, At: j.st.StartedNs})
	j.progress(event{at: j.st.StartedNs, typ: EventDispatched, chunk: -1, domain: noDomain})
	if j.st.Kind == KindParallelFor {
		go func() {
			defer s.wg.Done()
			res, err := s.regions.ParallelForObserved(j.st.Name, j.st.N, j.st.Arg, func(chunk, total, domain int) {
				j.progress(event{typ: EventChunk, chunk: int32(chunk), total: int32(total), domain: int16(domain)})
			})
			s.run(s.complete(j, res, err))
		}()
		return nil
	}
	_, err := s.fab.SubmitJobObserved(j.st.Name, j.st.Arg, j.observe, func(res []byte, err error) {
		defer s.wg.Done()
		s.run(s.complete(j, res, err))
	})
	if err != nil {
		defer s.wg.Done()
		return s.complete(j, nil, err)
	}
	return nil
}

// complete settles a launched job, gives its window slot to the WRR-next
// queued job and returns that job, nil for none. The tenant's quota and
// the slot are released, and the job counted, before it shows as
// settled, so a client that saw it settle may submit again at once and
// finds it in the stats. A result recovered from
// a lost domain (ErrDomainLost) is complete and correct — it settles as
// a success with the recovered flag set; so is a job re-executed after a
// restart (replayed flag).
func (s *Server) complete(j *jobRec, res []byte, err error) *jobRec {
	recovered := errors.Is(err, offload.ErrDomainLost) || j.replayed
	errMsg := ""
	if err != nil && !errors.Is(err, offload.ErrDomainLost) {
		errMsg = err.Error()
	}
	s.mu.Lock()
	j.tenant.inflight--
	s.free++
	next := s.dispatchOneLocked()
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
	j.settle(res, errMsg, recovered)
	s.lat.fold(j)
	s.retire(j)
	return next
}
