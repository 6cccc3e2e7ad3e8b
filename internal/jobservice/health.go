package jobservice

import (
	"net/http"

	"openmpmca/internal/oerrors"
	"openmpmca/internal/taskfabric"
)

// Health statuses. The surface is deliberately three-valued: "ok" means
// every worker domain is live, "degraded" means the service is up but
// some domains are lost (work still completes — the fabric re-executes
// a dead domain's tasks on the host), "down" means the service is
// shutting down and refusing work.
const (
	HealthOK       = "ok"
	HealthDegraded = "degraded"
	HealthDown     = "down"
)

// HealthView is the GET /v1/health body: one unauthenticated,
// load-balancer-friendly verdict plus the evidence it was derived from
// — domain liveness, queue depths and the error-taxonomy counters.
type HealthView struct {
	Status      string `json:"status"` // ok | degraded | down
	DomainsLive int    `json:"domains_live"`
	DomainsLost int    `json:"domains_lost"`
	// Queued and Running are the service's admission-queue depth and
	// in-flight job count; Outstanding sums tasks dispatched to worker
	// domains whose results are still pending.
	Queued      int `json:"queued"`
	Running     int `json:"running"`
	Outstanding int `json:"outstanding"`
	// Errors is the taxonomy counter snapshot; ByCategory gives the
	// error rate per failure plane without message parsing.
	Errors  oerrors.CountsSnapshot  `json:"errors"`
	Fabric  []taskfabric.DomainInfo `json:"fabric"`
	Offload []taskfabric.DomainInfo `json:"offload,omitempty"`
}

// Health assembles the service's liveness verdict. The offload section
// lists the separate region fabric's domains, present only with
// WithOffloader.
func (s *Server) Health() HealthView {
	v := HealthView{
		Fabric: s.fab.DomainInfos(),
		Errors: oerrors.Counts(),
	}
	if s.cfg.off != nil {
		v.Offload = s.cfg.off.DomainInfos()
	}
	for _, d := range v.Fabric {
		if d.Live {
			v.DomainsLive++
		} else {
			v.DomainsLost++
		}
		v.Outstanding += d.Outstanding
	}
	for _, d := range v.Offload {
		if d.Live {
			v.DomainsLive++
		} else {
			v.DomainsLost++
		}
	}
	s.mu.Lock()
	for _, t := range s.order {
		v.Queued += len(t.queue)
		v.Running += t.inflight - len(t.queue)
	}
	s.mu.Unlock()
	switch {
	case s.closed.Load():
		v.Status = HealthDown
	case v.DomainsLost > 0:
		v.Status = HealthDegraded
	default:
		v.Status = HealthOK
	}
	return v
}

// apiHealth serves GET /v1/health. Like /v1/ready it is
// unauthenticated, so probes and load balancers need no tenant key; a
// down service answers 503 so TCP-level checks agree with the body.
func (s *Server) apiHealth(w http.ResponseWriter, _ *http.Request) {
	v := s.Health()
	code := http.StatusOK
	if v.Status == HealthDown {
		code = http.StatusServiceUnavailable
	}
	writeSync(w, code, v)
}
