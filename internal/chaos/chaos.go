// Package chaos is the runtime's property-based fault-campaign runner:
// it composes fault actions — killing and readmitting worker domains,
// dropping/delaying/duplicating MCAPI frames, saturating admission, and
// canceling task groups — against running offload, task-fabric and
// job-service workloads, then asserts the two properties the recovery
// machinery promises:
//
//  1. byte-exact results: every unit of work that settles successfully
//     settles with exactly the closed-form expected payload, no matter
//     which domains died or which frames the wire ate;
//  2. zero lost jobs: every submitted unit settles — with a result or
//     with a classified error — within the drain deadline.
//
// Campaigns are seeded and replayable: the entire fault schedule is
// derived from one int64 seed (Plan), so `ompmca-chaos -seed 42` runs
// the identical schedule every time and a failing campaign's seed is a
// complete reproduction recipe. The per-frame drop/dup coin flips use a
// campaign-local RNG too; exact frame fates still race with scheduling,
// which is the point — the *schedule* is the property being replayed,
// the assertions hold under any interleaving.
//
// Run installs a process-wide MCAPI fault injector
// (mcapi.SetFaultInjector); campaigns must therefore run sequentially,
// never concurrently with each other or with production traffic.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"openmpmca/internal/mcapi"
	"openmpmca/internal/oerrors"
)

// Workload selects the subsystem a campaign drives.
type Workload string

// Workloads.
const (
	// WorkloadFabric submits task graphs to a taskfabric.Fabric
	// directly: sum tasks with closed-form results, long spin blockers
	// to set up stealing, sacrificial groups for cancellation.
	WorkloadFabric Workload = "fabric"
	// WorkloadOffload runs parallel-for regions on a region fabric
	// (taskfabric.NewOffloader): vecsum kernels with closed-form results.
	WorkloadOffload Workload = "offload"
	// WorkloadService drives the full HTTP job service over a loopback
	// socket: submissions, polling, group cancel and domain
	// drain/readmit all travel through the JSON API, including its quota
	// (429 + Retry-After) admission path, and /v1/stats must balance
	// once the campaign drains.
	WorkloadService Workload = "service"
)

// ActionKind is one fault family.
type ActionKind string

// Fault actions a campaign composes.
const (
	ActKillDomain    ActionKind = "kill"     // declare a worker domain dead (loss path)
	ActReadmitDomain ActionKind = "readmit"  // bring a killed domain back
	ActDropFrames    ActionKind = "drop"     // lose packet-channel frames at Rate for Window
	ActDelayFrames   ActionKind = "delay"    // hold each frame Delay at Rate for Window
	ActDupFrames     ActionKind = "dup"      // duplicate frames at Rate for Window
	ActSaturate      ActionKind = "saturate" // burst-submit past admission limits
	ActCancelGroup   ActionKind = "cancel"   // cancel the sacrificial task group
)

// Action is one scheduled fault.
type Action struct {
	Kind ActionKind    `json:"kind"`
	At   time.Duration `json:"at"` // offset from campaign start
	// Domain targets kill/readmit (fabric/offload link index).
	Domain int `json:"domain,omitempty"`
	// AfterSteal delays a kill until the fabric has completed at least
	// one steal (At then acts as the wait deadline) — the
	// kill-mid-graph scenario: the victim dies holding stolen tasks.
	AfterSteal bool `json:"after_steal,omitempty"`
	// Rate is the per-frame fault probability for drop/delay/dup.
	Rate float64 `json:"rate,omitempty"`
	// Delay is the per-frame hold for ActDelayFrames.
	Delay time.Duration `json:"delay,omitempty"`
	// Window is how long a frame-fault episode stays active.
	Window time.Duration `json:"window,omitempty"`
	// Burst is the ActSaturate submission burst size.
	Burst int `json:"burst,omitempty"`
}

// String renders one schedule line, deterministically.
func (a Action) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%8s @%-6s", a.Kind, a.At)
	switch a.Kind {
	case ActKillDomain:
		fmt.Fprintf(&b, " domain=%d", a.Domain)
		if a.AfterSteal {
			b.WriteString(" after-steal")
		}
	case ActReadmitDomain:
		fmt.Fprintf(&b, " domain=%d", a.Domain)
	case ActDropFrames, ActDupFrames:
		fmt.Fprintf(&b, " rate=%.2f window=%s", a.Rate, a.Window)
	case ActDelayFrames:
		fmt.Fprintf(&b, " rate=%.2f delay=%s window=%s", a.Rate, a.Delay, a.Window)
	case ActSaturate:
		fmt.Fprintf(&b, " burst=%d", a.Burst)
	}
	return b.String()
}

// Campaign is one replayable fault schedule plus the workload it runs
// against. Everything here is derived from the seed by Plan; a Campaign
// serializes losslessly, so a failure report IS a reproduction.
type Campaign struct {
	Name     string   `json:"name"`
	Seed     int64    `json:"seed"`
	Workload Workload `json:"workload"`
	Domains  int      `json:"domains"`
	Tasks    int      `json:"tasks"`              // main workload size
	Blockers int      `json:"blockers,omitempty"` // long tasks pinning domains (steal setup)
	// TaskSpin gives every fabric main task a busy time, so domains
	// killed mid-graph die holding in-flight work and the loss path is
	// actually exercised; zero keeps tasks instantaneous.
	TaskSpin time.Duration `json:"task_spin,omitempty"`
	Duration time.Duration `json:"duration"` // soft budget the schedule is laid out in
	Actions  []Action      `json:"actions"`
}

// Validate rejects a campaign whose schedule cannot be applied to its
// own topology — chiefly a kill or readmit naming a domain id that was
// never built. Run calls it before constructing any workload, so a
// hand-edited or version-skewed schedule fails fast with a classified
// error instead of silently no-opping its way to a hollow PASS.
func (c Campaign) Validate() error {
	if c.Domains < 1 {
		return oerrors.Errorf(oerrors.Admission, oerrors.CodeInvalidOption,
			"chaos: campaign %s: %d domains, need at least 1", c.Name, c.Domains)
	}
	for i, a := range c.Actions {
		switch a.Kind {
		case ActKillDomain, ActReadmitDomain:
			if a.Domain < 0 || a.Domain >= c.Domains {
				return oerrors.Errorf(oerrors.Admission, oerrors.CodeInvalidOption,
					"chaos: campaign %s: action %d (%s) targets domain %d, topology has domains 0..%d",
					c.Name, i, a.Kind, a.Domain, c.Domains-1)
			}
		case ActDropFrames, ActDelayFrames, ActDupFrames:
			if a.Rate < 0 || a.Rate > 1 {
				return oerrors.Errorf(oerrors.Admission, oerrors.CodeInvalidOption,
					"chaos: campaign %s: action %d (%s) rate %v outside [0,1]",
					c.Name, i, a.Kind, a.Rate)
			}
		}
	}
	return nil
}

// Schedule renders the campaign header and every action, one per line —
// byte-identical across replays of the same seed.
func (c Campaign) Schedule() string {
	var b strings.Builder
	fmt.Fprintf(&b, "campaign %s seed=%d workload=%s domains=%d tasks=%d",
		c.Name, c.Seed, c.Workload, c.Domains, c.Tasks)
	if c.Blockers > 0 {
		fmt.Fprintf(&b, " blockers=%d", c.Blockers)
	}
	b.WriteByte('\n')
	for _, a := range c.Actions {
		b.WriteString("  ")
		b.WriteString(a.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Result is one campaign's verdict and evidence.
type Result struct {
	Campaign string        `json:"campaign"`
	Seed     int64         `json:"seed"`
	Workload Workload      `json:"workload"`
	Elapsed  time.Duration `json:"elapsed"`

	Submitted int `json:"submitted"` // units of work submitted
	Settled   int `json:"settled"`   // units that reached a terminal state
	Lost      int `json:"lost"`      // Submitted - Settled: MUST be zero
	Exact     int `json:"exact"`     // units whose payload matched the closed form
	Inexact   int `json:"inexact"`   // units with a wrong payload: MUST be zero

	DomainKills    int    `json:"domain_kills"`
	Readmissions   int    `json:"readmissions"`
	FaultsInjected uint64 `json:"faults_injected"` // frames dropped/dup'd/delayed
	Steals         uint64 `json:"steals,omitempty"`
	// PeerSteals equals Steals: every steal moves directly
	// domain-to-domain over the mesh.
	PeerSteals uint64 `json:"peer_steals,omitempty"`
	Recovered  uint64 `json:"recovered,omitempty"` // units that survived a domain loss

	// Unclassified counts surfaced errors that carried no taxonomy
	// code: MUST be zero — every error crossing the public surface is
	// classified.
	Unclassified int `json:"unclassified"`
	// Errors is the oerrors counter growth attributable to this
	// campaign (per category and code).
	Errors oerrors.CountsSnapshot `json:"errors"`

	Failures []string `json:"failures,omitempty"`
}

// OK reports whether the campaign upheld both chaos properties and
// surfaced only classified errors.
func (r Result) OK() bool {
	return r.Lost == 0 && r.Inexact == 0 && r.Unclassified == 0 && len(r.Failures) == 0
}

// Summary renders a one-line verdict.
func (r Result) Summary() string {
	verdict := "PASS"
	if !r.OK() {
		verdict = "FAIL"
	}
	return fmt.Sprintf("%s %-8s %-7s settled %d/%d exact %d kills=%d readmits=%d faults=%d errors=%d in %v",
		verdict, r.Campaign, r.Workload, r.Settled, r.Submitted, r.Exact,
		r.DomainKills, r.Readmissions, r.FaultsInjected, r.Errors.Total, r.Elapsed.Round(time.Millisecond))
}

// fail records one assertion failure.
func (r *Result) fail(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// checkClassified asserts a surfaced error carries a taxonomy code.
func (r *Result) checkClassified(where string, err error) {
	if err == nil {
		return
	}
	if _, ok := oerrors.CodeOf(err); !ok {
		r.Unclassified++
		r.fail("%s: unclassified error: %v", where, err)
	}
}

// frameFaults is the mutable state behind the campaign's MCAPI fault
// injector: the currently open fault window, its rates, and a seeded
// RNG for the per-frame coin flips. Data-plane (packet-channel) frames
// only — heartbeats stay clean so domain loss happens exactly when the
// schedule kills a domain, not as a side effect of message drops.
type frameFaults struct {
	mu       sync.Mutex
	rng      *rand.Rand
	drop     float64
	dup      float64
	delayP   float64
	delay    time.Duration
	until    time.Time
	injected atomic.Uint64
}

func newFrameFaults(seed int64) *frameFaults {
	return &frameFaults{rng: rand.New(rand.NewSource(seed))}
}

// window opens one fault episode.
func (ff *frameFaults) window(kind ActionKind, rate float64, delay, window time.Duration) {
	ff.mu.Lock()
	defer ff.mu.Unlock()
	ff.drop, ff.dup, ff.delayP = 0, 0, 0
	switch kind {
	case ActDropFrames:
		ff.drop = rate
	case ActDupFrames:
		ff.dup = rate
	case ActDelayFrames:
		ff.delayP, ff.delay = rate, delay
	}
	ff.until = time.Now().Add(window)
}

// injector is the mcapi.FaultInjector for one campaign. Every injected
// fault is counted in the error taxonomy as Transport/frame_fault, so
// /v1/stats shows the campaign's wire damage alongside the errors it
// provoked.
func (ff *frameFaults) injector(class mcapi.FaultClass, _, _ mcapi.FaultTarget, _ int) mcapi.FaultDecision {
	if class != mcapi.FaultPkt {
		return mcapi.FaultDecision{}
	}
	ff.mu.Lock()
	defer ff.mu.Unlock()
	if time.Now().After(ff.until) {
		return mcapi.FaultDecision{}
	}
	p := ff.rng.Float64()
	var d mcapi.FaultDecision
	switch {
	case p < ff.drop:
		d = mcapi.FaultDecision{Action: mcapi.FaultDrop}
	case p < ff.drop+ff.dup:
		d = mcapi.FaultDecision{Action: mcapi.FaultDup}
	case p < ff.drop+ff.dup+ff.delayP:
		d = mcapi.FaultDecision{Action: mcapi.FaultDelay, Delay: ff.delay}
	default:
		return mcapi.FaultDecision{}
	}
	ff.injected.Add(1)
	_ = oerrors.New(oerrors.Transport, oerrors.CodeFrameFault, "chaos: injected frame fault")
	return d
}

// ops is the workload-side interface the fault driver applies actions
// through. Nil members mean the action is unsupported and skipped.
type ops struct {
	kill     func(domain int) error
	readmit  func(domain int) error
	steals   func() uint64
	saturate func(burst int)
	cancel   func()
}

// driveFaults executes the campaign's schedule against a running
// workload. It blocks until every action has been applied or stop
// closes; it returns the kill/readmit counts actually applied.
func driveFaults(c Campaign, ff *frameFaults, o ops, stop <-chan struct{}, res *Result) {
	actions := append([]Action(nil), c.Actions...)
	sort.SliceStable(actions, func(i, j int) bool { return actions[i].At < actions[j].At })
	start := time.Now()
	for _, a := range actions {
		wait := a.At - time.Since(start)
		if wait > 0 {
			select {
			case <-time.After(wait):
			case <-stop:
				return
			}
		}
		switch a.Kind {
		case ActKillDomain:
			if o.kill == nil {
				continue
			}
			if a.AfterSteal && o.steals != nil {
				// The kill-mid-graph trigger: wait until a steal has
				// completed so the victim dies holding migrated tasks. a.At is
				// already spent; allow one more window of patience.
				deadline := time.Now().Add(10 * time.Second)
				for o.steals() == 0 && time.Now().Before(deadline) {
					select {
					case <-time.After(time.Millisecond):
					case <-stop:
						return
					}
				}
			}
			if err := o.kill(a.Domain); err == nil {
				res.DomainKills++
			} else {
				res.checkClassified("kill", err)
			}
		case ActReadmitDomain:
			if o.readmit == nil {
				continue
			}
			if err := o.readmit(a.Domain); err == nil {
				res.Readmissions++
			} else {
				// Readmitting a live domain is a legitimate race with
				// the schedule; it must still classify.
				res.checkClassified("readmit", err)
			}
		case ActDropFrames, ActDelayFrames, ActDupFrames:
			ff.window(a.Kind, a.Rate, a.Delay, a.Window)
		case ActSaturate:
			if o.saturate != nil {
				o.saturate(a.Burst)
			}
		case ActCancelGroup:
			if o.cancel != nil {
				o.cancel()
			}
		}
	}
}
