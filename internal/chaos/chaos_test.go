package chaos

import (
	"strings"
	"testing"
	"time"

	"openmpmca/internal/oerrors"
)

// TestPlanDeterministic is the replay contract: the same (seed, n,
// duration) triple renders byte-identical schedules, and a different
// seed renders a different one.
func TestPlanDeterministic(t *testing.T) {
	render := func(seed int64) string {
		var b strings.Builder
		for _, c := range Plan(seed, 6, 2*time.Second) {
			b.WriteString(c.Schedule())
		}
		return b.String()
	}
	a, b := render(42), render(42)
	if a != b {
		t.Fatalf("same seed rendered different schedules:\n%s\n--- vs ---\n%s", a, b)
	}
	if render(43) == a {
		t.Error("different seeds rendered identical schedules")
	}
	// Any n >= 3 must mix every subsystem.
	for _, w := range []Workload{WorkloadFabric, WorkloadOffload, WorkloadService} {
		if !strings.Contains(a, "workload="+string(w)) {
			t.Errorf("plan is missing workload %s:\n%s", w, a)
		}
	}
}

// TestKillMidGraphCampaign is the promoted form of the fabric's
// original kill-mid-graph CI test: a domain is killed the moment it
// holds stolen tasks, and the graph must still settle byte-exact with
// the loss surfaced as classified domain_lost errors.
func TestKillMidGraphCampaign(t *testing.T) {
	r := Run(KillMidGraphCampaign())
	if !r.OK() {
		t.Fatalf("campaign failed: %v", r.Failures)
	}
	if r.DomainKills != 1 {
		t.Errorf("DomainKills = %d, want 1", r.DomainKills)
	}
	if r.Steals == 0 {
		t.Error("Steals = 0, want >= 1: the kill must land after a completed steal")
	}
	if r.Recovered == 0 {
		t.Error("Recovered = 0, want >= 1: the victim must die holding in-flight work")
	}
	if r.Errors.ByCode[oerrors.CodeDomainLost] == 0 {
		t.Errorf("no %s errors surfaced; errors = %+v", oerrors.CodeDomainLost, r.Errors)
	}
	if r.Lost != 0 || r.Inexact != 0 {
		t.Errorf("lost=%d inexact=%d, want 0/0", r.Lost, r.Inexact)
	}
}

// TestValidateRejectsPhantomDomain is the fail-fast contract: a
// schedule naming a domain id outside the campaign's own topology must
// fail the campaign immediately with a classified error — not silently
// no-op its way to a hollow PASS — and Run must never build a workload
// for it.
func TestValidateRejectsPhantomDomain(t *testing.T) {
	c := KillMidGraphCampaign()
	c.Actions = append(c.Actions, Action{Kind: ActReadmitDomain, At: time.Second, Domain: c.Domains + 3})
	if err := c.Validate(); err == nil {
		t.Fatal("Validate accepted a phantom domain id")
	} else if _, ok := oerrors.CodeOf(err); !ok {
		t.Fatalf("Validate error unclassified: %v", err)
	}
	start := time.Now()
	r := Run(c)
	if r.OK() {
		t.Fatal("Run passed a campaign with a phantom domain id")
	}
	if r.Unclassified != 0 {
		t.Errorf("Unclassified = %d, want 0", r.Unclassified)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("Run took %v for an invalid campaign, want fail-fast", elapsed)
	}
	if r.Submitted != 0 {
		t.Errorf("Submitted = %d: workload built for an invalid campaign", r.Submitted)
	}
}

// TestMeshCampaigns replays the fixed 8-domain peer-steal scenarios:
// kill-victim-mid-yield must settle byte-exact having actually exercised
// direct mesh steals, and dead-peer-channel must settle despite its
// drop window starving mesh links.
func TestMeshCampaigns(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second fault campaigns")
	}
	for _, c := range MeshCampaigns() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			r := Run(c)
			if !r.OK() {
				t.Fatalf("campaign %s failed: %v", c.Name, r.Failures)
			}
			if r.Lost != 0 || r.Inexact != 0 {
				t.Errorf("lost=%d inexact=%d, want 0/0", r.Lost, r.Inexact)
			}
			if c.Name == "kill-victim-mid-yield" {
				if r.PeerSteals == 0 {
					t.Errorf("PeerSteals = 0 (Steals = %d), want direct mesh migrations", r.Steals)
				}
				if r.DomainKills != 1 {
					t.Errorf("DomainKills = %d, want 1", r.DomainKills)
				}
			}
		})
	}
}

// TestMixedCampaignsSettle runs one short planned campaign per workload
// — each composing frame faults, a kill/readmit pair and (where the
// workload has admission) saturation and cancellation — and asserts the
// chaos properties hold for all three subsystems.
func TestMixedCampaignsSettle(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second fault campaigns")
	}
	for _, c := range Plan(1, 3, 600*time.Millisecond) {
		c := c
		t.Run(string(c.Workload), func(t *testing.T) {
			r := Run(c)
			if !r.OK() {
				t.Fatalf("campaign %s (seed %d) failed: %v", c.Name, c.Seed, r.Failures)
			}
			if r.Submitted == 0 || r.Settled != r.Submitted {
				t.Errorf("settled %d/%d, want all", r.Settled, r.Submitted)
			}
		})
	}
}
