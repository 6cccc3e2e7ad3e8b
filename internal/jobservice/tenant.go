package jobservice

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"openmpmca/internal/core"
)

// Priority is a tenant's service class. It maps to a weight in the
// weighted-fair dispatch: under contention a high tenant is dequeued
// four times for every one dequeue of a low tenant.
type Priority string

// Tenant service classes.
const (
	PriorityHigh   Priority = "high"
	PriorityNormal Priority = "normal"
	PriorityLow    Priority = "low"
)

// Weight returns the fair-share weight of the class (high 4, normal 2,
// low 1; unknown classes are invalid and rejected at construction).
func (p Priority) Weight() int {
	switch p {
	case PriorityHigh:
		return 4
	case PriorityNormal:
		return 2
	case PriorityLow:
		return 1
	}
	return 0
}

// Tenant is one API-key principal of the job service. Quota bounds the
// tenant's jobs in flight — admitted but not yet settled, queued and
// running alike — and further submissions are refused with HTTP 429
// until a slot frees. Rate/Burst optionally add a token bucket on top:
// sustained submissions above Rate jobs/sec (with bursts up to Burst)
// are refused with HTTP 429 and a computed Retry-After, independent of
// how many slots the quota has free. Rate 0 means unlimited. Admin
// additionally unlocks the domain drain/readmit endpoints.
type Tenant struct {
	Name     string   `json:"name"`
	Key      string   `json:"-"` // API key; never serialized
	Quota    int      `json:"quota"`
	Priority Priority `json:"priority"`
	Admin    bool     `json:"admin,omitempty"`
	Rate     float64  `json:"rate,omitempty"`  // submissions/sec; 0 = unlimited
	Burst    int      `json:"burst,omitempty"` // bucket depth; min 1 when Rate > 0
}

func (t Tenant) validate() error {
	if strings.TrimSpace(t.Name) == "" {
		return fmt.Errorf("%w: jobservice: tenant with empty name", core.ErrInvalidOption)
	}
	if t.Key == "" {
		return fmt.Errorf("%w: jobservice: tenant %q has no API key", core.ErrInvalidOption, t.Name)
	}
	if t.Quota < 1 {
		return fmt.Errorf("%w: jobservice: tenant %q quota %d: want >= 1", core.ErrInvalidOption, t.Name, t.Quota)
	}
	if t.Priority.Weight() == 0 {
		return fmt.Errorf("%w: jobservice: tenant %q priority %q: want high|normal|low", core.ErrInvalidOption, t.Name, t.Priority)
	}
	if t.Rate < 0 {
		return fmt.Errorf("%w: jobservice: tenant %q rate %v: want >= 0", core.ErrInvalidOption, t.Name, t.Rate)
	}
	if t.Rate > 0 && t.Burst < 1 {
		return fmt.Errorf("%w: jobservice: tenant %q burst %d with rate %v: want >= 1", core.ErrInvalidOption, t.Name, t.Burst, t.Rate)
	}
	return nil
}

// ParseTenant parses the "name:key:quota:priority[:admin][:rate=R/B]"
// spec of ompmca-serve's -tenant flag and tenants-file lines. The
// optional trailing fields may appear in either order: "admin" grants
// the admin bit, "rate=R/B" sets a token bucket of R submissions/sec
// with burst depth B.
func ParseTenant(spec string) (Tenant, error) {
	parts := strings.Split(spec, ":")
	if len(parts) < 4 || len(parts) > 6 {
		return Tenant{}, fmt.Errorf("%w: jobservice: tenant spec %q: want name:key:quota:priority[:admin][:rate=R/B]",
			core.ErrInvalidOption, spec)
	}
	quota, err := strconv.Atoi(parts[2])
	if err != nil {
		return Tenant{}, fmt.Errorf("%w: jobservice: tenant spec %q: bad quota: %v",
			core.ErrInvalidOption, spec, err)
	}
	t := Tenant{Name: parts[0], Key: parts[1], Quota: quota, Priority: Priority(parts[3])}
	for _, field := range parts[4:] {
		switch {
		case field == "admin":
			t.Admin = true
		case strings.HasPrefix(field, "rate="):
			rb := strings.SplitN(strings.TrimPrefix(field, "rate="), "/", 2)
			if len(rb) != 2 {
				return Tenant{}, fmt.Errorf("%w: jobservice: tenant spec %q: rate field wants rate=R/B",
					core.ErrInvalidOption, spec)
			}
			rate, err := strconv.ParseFloat(rb[0], 64)
			if err != nil {
				return Tenant{}, fmt.Errorf("%w: jobservice: tenant spec %q: bad rate: %v",
					core.ErrInvalidOption, spec, err)
			}
			burst, err := strconv.Atoi(rb[1])
			if err != nil {
				return Tenant{}, fmt.Errorf("%w: jobservice: tenant spec %q: bad burst: %v",
					core.ErrInvalidOption, spec, err)
			}
			t.Rate, t.Burst = rate, burst
		default:
			return Tenant{}, fmt.Errorf("%w: jobservice: tenant spec %q: unknown field %q (want \"admin\" or \"rate=R/B\")",
				core.ErrInvalidOption, spec, field)
		}
	}
	if err := t.validate(); err != nil {
		return Tenant{}, err
	}
	return t, nil
}

// DemoTenants is the out-of-the-box tenant set ompmca-serve boots with
// when no -tenant flags are given, and the set the crash campaign
// (internal/chaos) drives; the keys are demo fixtures for the simulated
// board, not secrets.
func DemoTenants() []Tenant {
	return []Tenant{
		{Name: "alice", Key: "key-alice", Quota: 64, Priority: PriorityHigh, Admin: true},
		{Name: "bob", Key: "key-bob", Quota: 32, Priority: PriorityNormal},
		{Name: "carol", Key: "key-carol", Quota: 8, Priority: PriorityLow},
	}
}

// tenantState is the server's live record of one tenant: its static
// config, the FIFO of admitted-but-undispatched jobs, the in-flight
// count the quota is enforced against, and the smooth-WRR credit fair
// dispatch cycles.
type tenantState struct {
	Tenant
	weight int

	// Guarded by Server.mu.
	queue    []*jobRec
	inflight int
	wrr      int
	jobs     []string // every job ID ever admitted, submission order

	// Token bucket (guarded by Server.mu). tokens is the current fill;
	// refilled lazily on each admission attempt from lastRefill.
	tokens     float64
	lastRefill time.Time

	accepted    atomic.Uint64
	rejected    atomic.Uint64
	rateLimited atomic.Uint64
	completed   atomic.Uint64
}

// takeToken refills the tenant's bucket from the wall clock and tries
// to spend one token. When the bucket is dry it returns false and the
// wait until the next token accrues. Tenants without a rate always
// admit. Caller holds Server.mu.
func (t *tenantState) takeToken(now time.Time) (bool, time.Duration) {
	if t.Rate <= 0 {
		return true, 0
	}
	if t.lastRefill.IsZero() {
		t.tokens = float64(t.Burst)
	} else if dt := now.Sub(t.lastRefill).Seconds(); dt > 0 {
		t.tokens += dt * t.Rate
		if max := float64(t.Burst); t.tokens > max {
			t.tokens = max
		}
	}
	t.lastRefill = now
	if t.tokens >= 1 {
		t.tokens--
		return true, 0
	}
	wait := time.Duration((1 - t.tokens) / t.Rate * float64(time.Second))
	return false, wait
}

// TenantStats is one tenant's section of ServiceStats.
type TenantStats struct {
	Name        string   `json:"name"`
	Priority    Priority `json:"priority"`
	Weight      int      `json:"weight"`
	Quota       int      `json:"quota"`
	Rate        float64  `json:"rate,omitempty"`
	Burst       int      `json:"burst,omitempty"`
	InFlight    int      `json:"in_flight"`
	Queued      int      `json:"queued"`
	Accepted    uint64   `json:"accepted"`
	Rejected    uint64   `json:"rejected"`
	RateLimited uint64   `json:"rate_limited,omitempty"`
	Completed   uint64   `json:"completed"`
}

// nextTenant picks the tenant to dequeue from next using smooth weighted
// round-robin over the tenants with queued jobs: each candidate's credit
// grows by its weight, the highest credit wins and pays back the total.
// Over a contended interval every tenant's dequeue share converges to
// weight/Σweights, with no tenant ever starved. Caller holds Server.mu.
func (s *Server) nextTenant() *tenantState {
	total := 0
	var best *tenantState
	for _, t := range s.order {
		if len(t.queue) == 0 {
			continue
		}
		total += t.weight
		t.wrr += t.weight
		if best == nil || t.wrr > best.wrr {
			best = t
		}
	}
	if best != nil {
		best.wrr -= total
	}
	return best
}
