package jobservice

import (
	"strings"
	"testing"
)

// wrrServer builds a Server holding only the WRR state nextTenant reads:
// one tenant per priority, in registration order high, normal, low, each
// with depth queued jobs.
func wrrServer(depth [3]int) *Server {
	s := &Server{}
	for i, p := range []Priority{PriorityHigh, PriorityNormal, PriorityLow} {
		ts := &tenantState{Tenant: Tenant{Name: string(p)}, weight: p.Weight()}
		ts.queue = make([]*jobRec, depth[i])
		s.order = append(s.order, ts)
	}
	return s
}

// pick dequeues n times the way dispatch does — one job from the
// tenant nextTenant names — and returns the pick sequence as initials.
func pick(t *testing.T, s *Server, n int) string {
	t.Helper()
	var b strings.Builder
	for i := 0; i < n; i++ {
		ts := s.nextTenant()
		if ts == nil {
			t.Fatalf("pick %d: nextTenant = nil with jobs still queued", i)
		}
		ts.queue = ts.queue[1:]
		b.WriteByte(ts.Name[0])
	}
	return b.String()
}

// TestWeightedFairInterleave pins the smooth weighted round-robin
// contract of dispatch: under contention high, normal and low
// tenants (weights 4, 2, 1) interleave in one fixed cycle of 7, shares
// are exactly weight/Σweights, and a tenant whose queue empties drops
// out without starving the rest.
func TestWeightedFairInterleave(t *testing.T) {
	s := wrrServer([3]int{1000, 1000, 1000})
	if got := pick(t, s, 7); got != "hnhlhnh" {
		t.Fatalf("one cycle = %q, want %q", got, "hnhlhnh")
	}
	seq := pick(t, s, 700)
	for _, c := range []struct {
		initial string
		want    int
	}{{"h", 400}, {"n", 200}, {"l", 100}} {
		if got := strings.Count(seq, c.initial); got != c.want {
			t.Errorf("%s picks over 700 = %d, want %d", c.initial, got, c.want)
		}
	}

	// High runs dry after two cycles; normal and low then split 2:1 with
	// low served in every window of three picks.
	s = wrrServer([3]int{8, 100, 100})
	if got := pick(t, s, 14); got != "hnhlhnhhnhlhnh" {
		t.Fatalf("first two cycles = %q", got)
	}
	if got := pick(t, s, 30); got != strings.Repeat("nln", 10) {
		t.Errorf("after high drains = %q, want %q", got, strings.Repeat("nln", 10))
	}

	// Low drains after one job: high and normal carry on 2:1, and once
	// every queue is drained nextTenant reports nothing to dispatch.
	s = wrrServer([3]int{6, 3, 1})
	if got := pick(t, s, 10); got != "hnhlhnhhnh" {
		t.Errorf("drain sequence = %q, want %q", got, "hnhlhnhhnh")
	}
	if ts := s.nextTenant(); ts != nil {
		t.Errorf("nextTenant = %q with every queue empty, want nil", ts.Name)
	}
}
